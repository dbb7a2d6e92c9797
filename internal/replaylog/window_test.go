package replaylog_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"sanity/internal/fixtures"
	"sanity/internal/replaylog"
)

// TestCheckpointRoundTrip: the SANLOG3 format (records + chunked
// checkpoint section) survives encode/decode bit-exactly, states that
// repeat their predecessors encode smaller than they are, and a
// checkpoint-free log still encodes as v1 so old corpora stay
// byte-stable.
func TestCheckpointRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		l := fixtures.RoundTripLogCheckpointed(seed)
		data := encodeLog(t, l)
		if !bytes.HasPrefix(data, []byte("SANLOG3\n")) {
			t.Fatalf("seed %d: checkpointed log did not encode as SANLOG3", seed)
		}
		var states int
		for _, c := range l.Checkpoints {
			states += len(c.State)
		}
		plain := *l
		plain.Checkpoints = nil
		if section := len(data) - len(encodeLog(t, &plain)); section >= states {
			t.Fatalf("seed %d: checkpoint section of %d bytes for %d bytes of states", seed, section, states)
		}
		got, err := replaylog.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !got.Equal(l) {
			t.Fatalf("seed %d: round trip lost checkpoints", seed)
		}
		if got.SizeBytes() != l.SizeBytes() || got.SizeBytes() != int64(len(data)) {
			t.Fatalf("seed %d: size drifted: %d -> %d (encoded %d)", seed, l.SizeBytes(), got.SizeBytes(), len(data))
		}
	}
	plain := encodeLog(t, fixtures.RoundTripLog(1))
	if !bytes.HasPrefix(plain, []byte("SANLOG1\n")) {
		t.Fatal("checkpoint-free log stopped encoding as v1")
	}
}

// TestDecodersRefuseHostileReferences: every hand-built abuse of the
// assembly references is refused by Validate, Decode and DecodeWindow
// alike, with the same error, for the reason the case names — the
// well-formed control built the same way decodes to the state it
// spells.
func TestDecodersRefuseHostileReferences(t *testing.T) {
	l, err := replaylog.Decode(bytes.NewReader(fixtures.ValidHandBuiltLog()))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	want := make([]byte, 600)
	for j := range 300 {
		want[j] = byte(j*7 + 3)
		want[300+j] = want[j]
	}
	if len(l.Checkpoints) != 1 || !bytes.Equal(l.Checkpoints[0].State, want) {
		t.Fatal("control assembled the wrong state")
	}
	l.Release()
	for _, h := range fixtures.HostileCheckpointLogs() {
		t.Run(h.Name, func(t *testing.T) {
			_, err := replaylog.Decode(bytes.NewReader(h.Data))
			if err == nil || !strings.Contains(err.Error(), h.Want) {
				t.Fatalf("Decode: %v, want an error containing %q", err, h.Want)
			}
			for _, from := range []int{0, 8, 1 << 20} {
				walksAgree(t, h.Data, from)
			}
		})
	}
}

// TestDecodeRefusesSANLOG2: the checkpoint encoding that stored every
// state whole is no longer read; the error says what to do.
func TestDecodeRefusesSANLOG2(t *testing.T) {
	data := encodeLog(t, fixtures.RoundTripLog(2))
	copy(data, "SANLOG2\n")
	for _, decode := range []func() error{
		func() error { _, err := replaylog.Decode(bytes.NewReader(data)); return err },
		func() error { _, err := replaylog.Validate(bytes.NewReader(data)); return err },
	} {
		if err := decode(); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Fatalf("SANLOG2 log: %v, want a re-record error", err)
		}
	}
}

// TestEqualNoticesCheckpointMutations extends the Equal matrix to the
// checkpoint index.
func TestEqualNoticesCheckpointMutations(t *testing.T) {
	base := func() *replaylog.Log { return fixtures.RoundTripLogCheckpointed(3) }
	mutations := map[string]func(l *replaylog.Log){
		"drop":    func(l *replaylog.Log) { l.Checkpoints = l.Checkpoints[:len(l.Checkpoints)-1] },
		"instr":   func(l *replaylog.Log) { l.Checkpoints[0].Instr++ },
		"outputs": func(l *replaylog.Log) { l.Checkpoints[1].Outputs++ },
		"records": func(l *replaylog.Log) { l.Checkpoints[1].Records-- },
		"cycles":  func(l *replaylog.Log) { l.Checkpoints[2].PlayCycles++ },
		"state":   func(l *replaylog.Log) { l.Checkpoints[0].State[0] ^= 0xFF },
	}
	for name, mutate := range mutations {
		l := base()
		mutate(l)
		if l.Equal(base()) {
			t.Errorf("checkpoint %s mutation went unnoticed", name)
		}
	}
}

// TestWindowSuffixReleasesNothing: a window's suffix aliases its log's
// records, so releasing both hands them back once. The log is intact
// after the suffix's Release, and two logs decoded after the log's own
// Release, both held, get records of their own.
func TestWindowSuffixReleasesNothing(t *testing.T) {
	data := encodeLog(t, fixtures.RoundTripLogCheckpointed(4))
	decode := func() *replaylog.Log {
		l, err := replaylog.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l, want := decode(), decode()
	defer want.Release()
	from := int(l.Checkpoints[len(l.Checkpoints)-1].Outputs)
	w, err := l.Window(from, from+1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Start == nil || w.Suffix == l {
		t.Fatal("the window does not resume from a checkpoint")
	}
	w.Suffix.Release()
	if !l.Equal(want) {
		t.Fatal("releasing a window's suffix changed its log")
	}
	l.Release()
	a, b := decode(), decode()
	defer a.Release()
	defer b.Release()
	if &a.Records[0] == &b.Records[0] {
		t.Fatal("two held logs share one records slice: it went back twice")
	}
}

// TestWindowSelection pins the segment-index query: which checkpoint
// a window resumes from, how the record stream is sliced, and the
// skipped-randoms count the engine fast-forwards with.
func TestWindowSelection(t *testing.T) {
	l := fixtures.RoundTripLogCheckpointed(5) // checkpoints at outputs 8, 16, 24
	countKind := func(recs []replaylog.Record, k replaylog.Kind) int64 {
		var n int64
		for _, r := range recs {
			if r.Kind == k {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name     string
		from, to int
		wantCkpt int // index into l.Checkpoints, -1 = none
	}{
		{"before first checkpoint", 0, 5, -1},
		{"just short of first", 7, 9, -1},
		{"exactly on a boundary", 8, 12, 0},
		{"between boundaries", 17, 20, 1},
		{"far past the last", 500, 600, 2},
		{"empty window", 16, 16, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := l.Window(tc.from, tc.to)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantCkpt < 0 {
				if w.Start != nil {
					t.Fatalf("expected full-replay fallback, got checkpoint at outputs %d", w.Start.Outputs)
				}
				if len(w.Suffix.Records) != len(l.Records) {
					t.Fatalf("fallback window sliced the record stream")
				}
				return
			}
			want := &l.Checkpoints[tc.wantCkpt]
			if w.Start != want {
				t.Fatalf("resumed from the wrong checkpoint: got %+v want outputs=%d", w.Start, want.Outputs)
			}
			if got, want := int64(len(w.Suffix.Records)), int64(len(l.Records))-want.Records; got != want {
				t.Fatalf("suffix holds %d records, want %d", got, want)
			}
			if w.Suffix.Program != l.Program || w.Suffix.Machine != l.Machine || w.Suffix.Profile != l.Profile {
				t.Fatal("suffix lost the log identity")
			}
			if got, want := w.SkippedRandoms, countKind(l.Records[:want.Records], replaylog.KindRandom); got != want {
				t.Fatalf("SkippedRandoms = %d, want %d", got, want)
			}
			if got, want := w.SkippedPackets, countKind(l.Records[:want.Records], replaylog.KindPacket); got != want {
				t.Fatalf("SkippedPackets = %d, want %d", got, want)
			}
		})
	}
	if _, err := l.Window(-1, 4); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := l.Window(9, 3); err == nil {
		t.Fatal("inverted window accepted")
	}
}

// TestDecodeRejectsMalformedCheckpoints: overlapping boundaries,
// out-of-range record cursors, oversized state claims, and trailing
// garbage after the checkpoint section must all fail with errors.
func TestDecodeRejectsMalformedCheckpoints(t *testing.T) {
	mutate := func(f func(l *replaylog.Log)) []byte {
		l := fixtures.RoundTripLogCheckpointed(7)
		f(l)
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"overlapping outputs": mutate(func(l *replaylog.Log) {
			l.Checkpoints[1].Outputs = l.Checkpoints[0].Outputs
		}),
		"non-monotone instr": mutate(func(l *replaylog.Log) {
			l.Checkpoints[2].Instr = l.Checkpoints[0].Instr
		}),
		"record cursor past stream": mutate(func(l *replaylog.Log) {
			l.Checkpoints[2].Records = int64(len(l.Records)) + 9
		}),
		"negative outputs": mutate(func(l *replaylog.Log) {
			l.Checkpoints[0].Outputs = -3
		}),
		"trailing garbage": append(mutate(func(*replaylog.Log) {}), 0xAB),
	}
	// A state-length claim past the per-state cap, patched into the
	// hand-built control, whose section ends with stateLen, op count,
	// a 300-byte literal (tag, length, bytes) and a reference (tag,
	// offset, length).
	huge := fixtures.ValidHandBuiltLog()
	binary.LittleEndian.PutUint64(huge[len(huge)-(16+9+300+17):], 1<<40)
	cases["huge state length"] = huge
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := replaylog.Decode(bytes.NewReader(data)); err == nil {
				t.Fatal("malformed checkpoint section accepted")
			}
		})
	}
}

// FuzzWindow fuzzes the segment-index path end to end: any input
// that decodes must answer arbitrary Window queries without panics,
// and every answer must satisfy the plan's invariants (suffix is a
// tail of the records, the checkpoint really is at-or-before the
// window, skipped randoms within range).
func FuzzWindow(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := fixtures.RoundTripLogCheckpointed(seed).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), 4, 20)
	}
	var plain bytes.Buffer
	if err := fixtures.RoundTripLog(4).Encode(&plain); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes(), 0, 1)
	f.Add([]byte("SANLOG3\n"), 0, 100)
	f.Add(fixtures.ValidHandBuiltLog(), 8, 9)
	for _, h := range fixtures.HostileCheckpointLogs() {
		f.Add(h.Data, 8, 16)
	}
	f.Fuzz(func(t *testing.T, data []byte, from, to int) {
		l, err := replaylog.Decode(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "replaylog:") && !isIOError(err) {
				t.Fatalf("unwrapped error: %v", err)
			}
			return
		}
		w, err := l.Window(from, to)
		if err != nil {
			if from >= 0 && to >= from {
				t.Fatalf("valid window [%d,%d) rejected: %v", from, to, err)
			}
			return
		}
		if w.Start == nil {
			if len(w.Suffix.Records) != len(l.Records) {
				t.Fatal("fallback plan sliced the records")
			}
			if w.SkippedRandoms != 0 {
				t.Fatal("fallback plan skipped randoms")
			}
			return
		}
		if w.Start.Outputs > int64(from) {
			t.Fatalf("checkpoint at outputs %d is past the window start %d", w.Start.Outputs, from)
		}
		if got, want := int64(len(w.Suffix.Records)), int64(len(l.Records))-w.Start.Records; got != want {
			t.Fatalf("suffix length %d, want %d", got, want)
		}
		if w.SkippedRandoms < 0 || w.SkippedPackets < 0 ||
			w.SkippedRandoms+w.SkippedPackets > w.Start.Records {
			t.Fatalf("skipped counts %d+%d outside [0,%d]", w.SkippedRandoms, w.SkippedPackets, w.Start.Records)
		}
	})
}

// TestEmptyStateIsKept: a checkpoint whose State is empty decodes to
// an empty State, not a missing one, under Decode and DecodeWindow.
func TestEmptyStateIsKept(t *testing.T) {
	l := fixtures.RoundTripLogCheckpointed(4)
	for i := range l.Checkpoints {
		l.Checkpoints[i].State = nil
	}
	data := encodeLog(t, l)
	full, err := replaylog.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	win, err := replaylog.DecodeWindow(bytes.NewReader(data), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Release()
	if full.Checkpoints[2].State == nil || win.Checkpoints[1].State == nil || win.Checkpoints[2].State != nil {
		t.Fatal("an empty kept State decoded as absent, or an unkept one as present")
	}
	walksAgree(t, data, 16)
}

// TestConcurrentDecodes: decodes on several goroutines draw assembly
// buffers from one free list; each decoded log keeps its own until
// Release, so concurrent decodes, releases and re-decodes never see
// each other's states.
func TestConcurrentDecodes(t *testing.T) {
	want := fixtures.RoundTripLogCheckpointed(6)
	data := encodeLog(t, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l, err := replaylog.Decode(bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				win, err := replaylog.DecodeWindow(bytes.NewReader(data), 16)
				if err != nil {
					t.Error(err)
					return
				}
				if !l.Equal(want) || !bytes.Equal(win.Checkpoints[1].State, want.Checkpoints[1].State) {
					t.Error("a concurrent decode saw another's state")
				}
				l.Release()
				win.Release()
			}
		}()
	}
	wg.Wait()
}
