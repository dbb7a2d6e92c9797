package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sanity/internal/detect"
	"sanity/internal/fixtures"
	"sanity/internal/store"
)

// FuzzReadTrace throws hostile containers at the full trace decode
// path. The seed corpus covers both container versions, checkpoint
// sections (the SANLOG3 'L' payload, well-formed and with each kind
// of hostile assembly reference), chunked multi-frame sections, and
// the oversized-metadata rejection path, so the fuzzer starts from
// every boundary the reader defends. Properties: never panic,
// errors stay wrapped, the typed ErrMetaTooLarge is the only way an
// oversized metadata section resolves, and a successfully decoded
// trace can be released and decoded again identically (the pooled
// buffers never leak state between decodes). Every input is also
// offered to admission (admissionAgrees): PutContainer walks the
// container with the decoders' own parsers but retains nothing, and
// must accept exactly what ReadTrace decodes.
func FuzzReadTrace(f *testing.F) {
	addContainer := func(meta store.Meta, seed uint64, checkpointed bool) []byte {
		log := fixtures.RoundTripLog(seed)
		if checkpointed {
			log = fixtures.RoundTripLogCheckpointed(seed)
		}
		tr := fullTrace()
		tr.Log = log
		var buf bytes.Buffer
		if err := store.WriteTrace(&buf, meta, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		return buf.Bytes()
	}
	meta := testMeta()
	addContainer(meta, 1, false)
	full := addContainer(meta, 2, true)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])

	// The oversized-metadata rejection path: a metadata section chunked
	// across enough valid frames to pass MaxFrame.
	var big bytes.Buffer
	w, err := store.NewWriter(&big)
	if err != nil {
		f.Fatal(err)
	}
	huge := fmt.Sprintf(`{"id":"x","shard":"s","role":"test","label":"unknown","channel":%q}`,
		strings.Repeat("a", store.MaxFrame+1))
	if _, err := w.Section(store.FrameMeta).Write([]byte(huge)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(big.Bytes())
	f.Add([]byte("TDRTRACE\x01"))
	f.Add([]byte("TDRTRACE\x02"))
	f.Add([]byte("TDRTRACE\x03"))
	f.Add(handBuiltContainer(f, fixtures.ValidHandBuiltLog()))
	for _, h := range fixtures.HostileCheckpointLogs() {
		f.Add(handBuiltContainer(f, h.Data))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, tr, err := store.ReadTrace(bytes.NewReader(data))
		if err != nil {
			admissionAgrees(t, data, meta, nil, err)
			msg := err.Error()
			if !strings.HasPrefix(msg, "store:") && !strings.HasPrefix(msg, "replaylog:") && !isIOError(err) {
				t.Fatalf("unwrapped error: %v", err)
			}
			if strings.Contains(msg, "metadata section too large") && !errors.Is(err, store.ErrMetaTooLarge) {
				t.Fatalf("oversized metadata not typed: %v", err)
			}
			return
		}
		// A decodable container must decode identically after the first
		// trace's pooled buffers are recycled.
		var logCopy []byte
		if tr.Log != nil {
			var lb bytes.Buffer
			if err := tr.Log.Encode(&lb); err != nil {
				t.Fatalf("re-encode of decoded log: %v", err)
			}
			logCopy = lb.Bytes()
		}
		tr.Release()
		_, tr2, err := store.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second decode failed after release: %v", err)
		}
		defer tr2.Release()
		if tr2.Log != nil {
			var lb bytes.Buffer
			if err := tr2.Log.Encode(&lb); err != nil {
				t.Fatalf("re-encode of second decode: %v", err)
			}
			if !bytes.Equal(logCopy, lb.Bytes()) {
				t.Fatal("pooled-buffer reuse changed a decoded log")
			}
		}
		admissionAgrees(t, data, meta, tr2, nil)
	})
}

// admissionAgrees offers a container to PutContainer on a fresh store
// whose one shard is whatever the container names, and checks it
// against ReadTrace's outcome on the same bytes: a container ReadTrace
// rejects is refused with the same error; one it decodes is admitted —
// unless its metadata contradicts its own log, the one check only
// admission makes — and the admitted file is the upload byte for byte
// and loads back to the trace ReadTrace produced.
func admissionAgrees(t *testing.T, data []byte, meta store.Meta, tr *detect.Trace, readErr error) {
	t.Helper()
	st, err := store.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shard := store.ShardMeta{Key: meta.Shard, Program: meta.Program, Machine: meta.Machine, Profile: meta.Profile}
	if tr != nil && tr.Log != nil {
		for _, f := range []struct {
			dst    *string
			logged string
		}{
			{&shard.Program, tr.Log.Program}, {&shard.Machine, tr.Log.Machine}, {&shard.Profile, tr.Log.Profile},
		} {
			if *f.dst == "" {
				*f.dst = f.logged
			}
		}
	}
	if readErr == nil {
		if err := st.AddShard(shard); err != nil {
			t.Fatal(err)
		}
	}
	admitted, err := st.PutContainer(bytes.NewReader(data))
	if readErr != nil {
		if err == nil || err.Error() != readErr.Error() {
			t.Fatalf("ReadTrace rejected with %q, PutContainer with %v", readErr, err)
		}
		return
	}
	if err != nil {
		if msg := err.Error(); !strings.Contains(msg, "metadata claims") && !strings.Contains(msg, "single-line") {
			t.Fatalf("ReadTrace decoded the container, PutContainer refused it: %v", err)
		}
		return
	}
	entries := st.Entries()
	if len(entries) != 1 || entries[0].Meta != admitted {
		t.Fatalf("manifest after one admission: %+v", entries)
	}
	onDisk, err := os.ReadFile(filepath.Join(st.Dir(), entries[0].File))
	if err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("admitted container is not the upload byte for byte (%v)", err)
	}
	_, loaded, err := st.LoadTrace(entries[0].File)
	if err != nil {
		t.Fatalf("admitted container does not load: %v", err)
	}
	defer loaded.Release()
	if !reflect.DeepEqual(loaded.IPDs, tr.IPDs) || !loaded.Log.Equal(tr.Log) || !reflect.DeepEqual(loaded.Play, tr.Play) {
		t.Fatal("admitted container loads to a different trace than ReadTrace decoded")
	}
	if admitted.IPDs != len(tr.IPDs) || (tr.Log != nil && admitted.Records != len(tr.Log.Records)) {
		t.Fatalf("admitted metadata counts %d/%d disagree with the trace", admitted.IPDs, admitted.Records)
	}
}

// handBuiltContainer wraps a hand-built log (fixtures.HostileLog and
// its control) in an otherwise well-formed v3 container.
func handBuiltContainer(t testing.TB, log []byte) []byte {
	var buf bytes.Buffer
	w, err := store.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mj := fmt.Sprintf(`{"id":"h","shard":"s","role":"test","label":"unknown","records":%d}`, len(fixtures.RoundTripLog(1).Records))
	w.Section(store.FrameMeta).Write([]byte(mj))
	w.Section(store.FrameLog).Write(log)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileReferencesRefusedAtAdmission: a container whose log
// abuses assembly references is refused by ReadTrace, by admission
// with the same error, and for the reason its case names, while the
// well-formed control is admitted.
func TestHostileReferencesRefusedAtAdmission(t *testing.T) {
	control := handBuiltContainer(t, fixtures.ValidHandBuiltLog())
	meta, tr, err := store.ReadTrace(bytes.NewReader(control))
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	admissionAgrees(t, control, meta, tr, nil)
	tr.Release()
	for _, h := range fixtures.HostileCheckpointLogs() {
		t.Run(h.Name, func(t *testing.T) {
			data := handBuiltContainer(t, h.Data)
			meta, _, err := store.ReadTrace(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), h.Want) {
				t.Fatalf("ReadTrace: %v, want an error containing %q", err, h.Want)
			}
			admissionAgrees(t, data, meta, nil, err)
		})
	}
}

// isIOError reports low-level readers' unwrapped io errors
// (io.ErrUnexpectedEOF from ReadFull) that surface through decode.
func isIOError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "EOF") || strings.Contains(msg, "unexpected")
}
