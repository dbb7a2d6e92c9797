package replaylog_test

import (
	"bytes"
	"strings"
	"testing"

	"sanity/internal/fixtures"
	"sanity/internal/replaylog"
)

// encodeLog renders a log to bytes, failing the test on error.
func encodeLog(t testing.TB, l *replaylog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestEncodeDecodeRoundTrip is the seeded-corpus round-trip property:
// Decode(Encode(l)).Equal(l) for every log in the fuzz seed corpus,
// which exercises all three record kinds.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		l := fixtures.RoundTripLog(seed)
		got, err := replaylog.Decode(bytes.NewReader(encodeLog(t, l)))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !got.Equal(l) {
			t.Fatalf("seed %d: round trip lost records", seed)
		}
		if got.SizeBytes() != l.SizeBytes() {
			t.Fatalf("seed %d: size drifted: %d -> %d", seed, l.SizeBytes(), got.SizeBytes())
		}
	}
}

// TestEqual checks the comparison notices every kind of difference.
func TestEqual(t *testing.T) {
	base := func() *replaylog.Log { return fixtures.RoundTripLog(3) }
	if !base().Equal(base()) {
		t.Fatal("identical logs compare unequal")
	}
	mutations := map[string]func(l *replaylog.Log){
		"program":  func(l *replaylog.Log) { l.Program = "other" },
		"machine":  func(l *replaylog.Log) { l.Machine = "other" },
		"profile":  func(l *replaylog.Log) { l.Profile = "other" },
		"truncate": func(l *replaylog.Log) { l.Records = l.Records[:len(l.Records)-1] },
		"kind":     func(l *replaylog.Log) { l.Records[0].Kind = replaylog.KindRandom },
		"instr":    func(l *replaylog.Log) { l.Records[1].Instr++ },
		"value":    func(l *replaylog.Log) { l.Records[1].Value++ },
		"playps":   func(l *replaylog.Log) { l.Records[1].PlayPs++ },
		"payload":  func(l *replaylog.Log) { l.Records[0].Payload = append(l.Records[0].Payload, 1) },
	}
	for name, mutate := range mutations {
		l := base()
		mutate(l)
		if l.Equal(base()) {
			t.Errorf("%s mutation went unnoticed", name)
		}
	}
	var nilLog *replaylog.Log
	if nilLog.Equal(base()) || base().Equal(nilLog) {
		t.Fatal("nil log equals a real one")
	}
	if !nilLog.Equal(nil) {
		t.Fatal("nil != nil")
	}
}

// TestDecodeRejectsTrailingGarbage: bytes after the last record are
// corruption, not padding — Decode must not silently ignore them.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	valid := encodeLog(t, fixtures.RoundTripLog(5))
	for _, extra := range [][]byte{{0}, []byte("junk"), valid} {
		data := append(append([]byte(nil), valid...), extra...)
		if _, err := replaylog.Decode(bytes.NewReader(data)); err == nil {
			t.Fatalf("accepted %d trailing bytes", len(extra))
		}
	}
}

// TestDecodeRejectsCorruption feeds structured corruptions and
// demands errors, never panics.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeLog(t, fixtures.RoundTripLog(7))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOTALOG\n")},
		{"truncated magic", valid[:4]},
		{"truncated header", valid[:10]},
		{"truncated mid-records", valid[:len(valid)-9]},
		{"unknown record kind", corrupt(valid, func(b []byte) { b[findRecordStart(valid)] = 'Z' })},
		{"huge string length", corrupt(valid, func(b []byte) {
			// First string length prefix sits right after the magic.
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := replaylog.Decode(bytes.NewReader(tc.data)); err == nil {
				t.Fatalf("corrupted input accepted")
			}
		})
	}
}

// TestDecodeHugeCountClaim checks the header's record count cannot
// force a giant allocation: a log claiming 2^29 records backed by no
// bytes must fail cheaply.
func TestDecodeHugeCountClaim(t *testing.T) {
	l := replaylog.New("p", "m", "prof")
	data := encodeLog(t, l)
	// The record count is the 8 bytes before the (empty) record area:
	// magic(8) + 3×(len prefix 4 + str) + count(8).
	countOff := 8 + 4 + 1 + 4 + 1 + 4 + 4
	data[countOff] = 0
	data[countOff+1] = 0
	data[countOff+2] = 0
	data[countOff+3] = 0x20 // 2^29 records
	if _, err := replaylog.Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("claimed 2^29 records with empty body, decode accepted")
	}
}

// findRecordStart returns the offset of the first record's kind byte.
func findRecordStart(valid []byte) int {
	// magic(8) + for each of 3 strings: 4-byte length + bytes, then
	// 8-byte count. RoundTripLog uses fixed identity strings.
	off := 8
	for i := 0; i < 3; i++ {
		n := int(uint32(valid[off]) | uint32(valid[off+1])<<8 | uint32(valid[off+2])<<16 | uint32(valid[off+3])<<24)
		off += 4 + n
	}
	return off + 8
}

func corrupt(valid []byte, f func([]byte)) []byte {
	b := append([]byte(nil), valid...)
	f(b)
	return b
}

// decodeSeeds is the decoder's seed corpus: every record kind in both
// encodings, truncations of each, bare magics, junk, and the
// hand-built checkpoint sections — one well-formed, the rest each
// abusing assembly references one way.
func decodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for seed := uint64(1); seed <= 3; seed++ {
		seeds = append(seeds, encodeLog(t, fixtures.RoundTripLog(seed)))
		seeds = append(seeds, encodeLog(t, fixtures.RoundTripLogCheckpointed(seed)))
	}
	valid := encodeLog(t, fixtures.RoundTripLog(9))
	ckpt := encodeLog(t, fixtures.RoundTripLogCheckpointed(9))
	seeds = append(seeds,
		valid[:len(valid)/2],
		ckpt[:len(ckpt)-7],
		[]byte("SANLOG1\n"),
		[]byte("SANLOG2\n"),
		[]byte("SANLOG3\n"),
		bytes.Repeat([]byte{0xff}, 64),
		fixtures.ValidHandBuiltLog())
	for _, h := range fixtures.HostileCheckpointLogs() {
		seeds = append(seeds, h.Data)
	}
	return seeds
}

// FuzzDecode is the round-trip fuzz target: any input that decodes
// must re-encode and re-decode to the identical log; any input that
// does not decode must fail with an error, not a panic or a runaway
// allocation.
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := replaylog.Decode(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "replaylog:") && !isIOError(err) {
				t.Fatalf("unwrapped error: %v", err)
			}
			return
		}
		reencoded := encodeLog(t, l)
		l2, err := replaylog.Decode(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !l2.Equal(l) {
			t.Fatal("decode(encode(l)) != l")
		}
	})
}

// isIOError recognizes the raw io errors Decode lets through on
// truncated fixed-width fields.
func isIOError(err error) bool {
	s := err.Error()
	return strings.Contains(s, "EOF")
}

// walksAgree is the shared-walker differential: Validate, Decode and
// DecodeWindow are one parser under three retention policies, so on
// any input they accept or reject together, with the same error text,
// and agree on identity, counts, records and the checkpoint index. A
// windowed decode additionally answers the Window query it was loaded
// for with the very bytes a full decode restores from, and holds no
// other State.
func walksAgree(t testing.TB, data []byte, from int) {
	t.Helper()
	full, derr := replaylog.Decode(bytes.NewReader(data))
	sum, verr := replaylog.Validate(bytes.NewReader(data))
	win, werr := replaylog.DecodeWindow(bytes.NewReader(data), from)
	if derr != nil {
		for name, err := range map[string]error{"Validate": verr, "DecodeWindow": werr} {
			if err == nil || err.Error() != derr.Error() {
				t.Fatalf("Decode rejected with %q, %s with %v", derr, name, err)
			}
		}
		return
	}
	defer full.Release()
	if verr != nil || werr != nil {
		t.Fatalf("Decode accepted; Validate: %v, DecodeWindow: %v", verr, werr)
	}
	defer win.Release()
	if sum != *full.Summary() || sum != *win.Summary() {
		t.Fatalf("summaries differ: Validate %+v, Decode %+v, DecodeWindow %+v", sum, full.Summary(), win.Summary())
	}
	from = max(from, 0)
	want, err := full.Window(from, from+1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := win.Window(from, from+1)
	if err != nil {
		t.Fatalf("windowed decode cannot answer its own window: %v", err)
	}
	if (got.Start == nil) != (want.Start == nil) || got.SkippedPackets != want.SkippedPackets || got.SkippedRandoms != want.SkippedRandoms {
		t.Fatalf("window plans differ: %+v vs %+v", got, want)
	}
	held := 0
	for i, c := range win.Checkpoints {
		if c.State != nil {
			held++
		}
		c.State = full.Checkpoints[i].State
		win.Checkpoints[i] = c
	}
	if want.Start != nil && !bytes.Equal(got.Start.State, want.Start.State) {
		t.Fatal("windowed decode retained different state bytes")
	}
	if (want.Start == nil && held != 0) || (want.Start != nil && held != 1) {
		t.Fatalf("windowed decode holds %d states", held)
	}
	// With the dropped States filled back in, the two logs are equal.
	if !win.Equal(full) {
		t.Fatal("windowed decode differs from the full decode beyond the dropped states")
	}
}

// TestWalksAgreeOnSeeds runs the differential over FuzzDecode's seed
// corpus at window starts before, between and past the checkpoints.
func TestWalksAgreeOnSeeds(t *testing.T) {
	for _, seed := range decodeSeeds(t) {
		for _, from := range []int{0, 7, 8, 17, 1 << 20} {
			walksAgree(t, seed, from)
		}
	}
}

// TestWindowedDecodeRefusesOtherWindows: a State that was not kept is
// an error at planning time, never a restore from nothing.
func TestWindowedDecodeRefusesOtherWindows(t *testing.T) {
	data := encodeLog(t, fixtures.RoundTripLogCheckpointed(5)) // checkpoints at outputs 8, 16, 24
	l, err := replaylog.DecodeWindow(bytes.NewReader(data), 17)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if _, err := l.Window(17, 30); err != nil {
		t.Fatalf("own window: %v", err)
	}
	if _, err := l.Window(3, 30); err != nil {
		t.Fatalf("a window before every checkpoint needs no state: %v", err)
	}
	for _, from := range []int{8, 24} {
		if _, err := l.Window(from, 30); err == nil {
			t.Fatalf("window from %d planned a restore of a dropped state", from)
		}
	}
}

func FuzzValidateAgreesWithDecode(f *testing.F) {
	for i, seed := range decodeSeeds(f) {
		f.Add(seed, i*5)
	}
	f.Fuzz(func(t *testing.T, data []byte, from int) { walksAgree(t, data, from) })
}
