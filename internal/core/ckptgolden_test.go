package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sanity/internal/fixtures"
	"sanity/internal/replaylog"
)

// checkpointStatesSHA256 is the digest of every checkpoint state, in
// order, of one fixed checkpointed nfsd recording. Ring and heap
// storage may change how the engine holds its state in memory, never
// the bytes a checkpoint carries — and the log encoding may change how
// it stores them, never the bytes a decoder gives back.
const checkpointStatesSHA256 = "1a18961a4fe453ab6a709d42cc5b289e04abee2ebe94ece0298b32724fabb62e"

func TestCheckpointBytesGolden(t *testing.T) {
	tr, err := fixtures.PlayTraceCheckpointed(120, 42, 42, fixtures.DefaultCheckpointEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Log.Checkpoints); n != 7 {
		t.Fatalf("recording carries %d checkpoints, want 7", n)
	}
	digest := func(states func(i int) []byte) string {
		h := sha256.New()
		for i := range tr.Log.Checkpoints {
			h.Write(states(i))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if got := digest(func(i int) []byte { return tr.Log.Checkpoints[i].State }); got != checkpointStatesSHA256 {
		t.Fatalf("checkpoint states sha256 %s, want %s", got, checkpointStatesSHA256)
	}
	var buf bytes.Buffer
	if err := tr.Log.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full, err := replaylog.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	if got := digest(func(i int) []byte { return full.Checkpoints[i].State }); got != checkpointStatesSHA256 {
		t.Fatalf("decoded checkpoint states sha256 %s, want %s", got, checkpointStatesSHA256)
	}
	// A windowed decode resumed at checkpoint i assembles state i
	// alone.
	got := digest(func(i int) []byte {
		win, err := replaylog.DecodeWindow(bytes.NewReader(buf.Bytes()), int(tr.Log.Checkpoints[i].Outputs))
		if err != nil {
			t.Fatal(err)
		}
		defer win.Release()
		for j, c := range win.Checkpoints {
			if (c.State != nil) != (j == i) {
				t.Fatalf("windowed decode at checkpoint %d holds state %d: %v", i, j, c.State != nil)
			}
		}
		return bytes.Clone(win.Checkpoints[i].State)
	})
	if got != checkpointStatesSHA256 {
		t.Fatalf("window-decoded checkpoint states sha256 %s, want %s", got, checkpointStatesSHA256)
	}
}
