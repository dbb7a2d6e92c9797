package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sanity/internal/fixtures"
)

// checkpointStatesSHA256 is the digest of every checkpoint state, in
// order, of one fixed checkpointed nfsd recording. Ring and heap
// storage may change how the engine holds its state in memory, never
// the bytes a checkpoint carries.
const checkpointStatesSHA256 = "1a18961a4fe453ab6a709d42cc5b289e04abee2ebe94ece0298b32724fabb62e"

func TestCheckpointBytesGolden(t *testing.T) {
	tr, err := fixtures.PlayTraceCheckpointed(120, 42, 42, fixtures.DefaultCheckpointEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Log.Checkpoints); n != 7 {
		t.Fatalf("recording carries %d checkpoints, want 7", n)
	}
	h := sha256.New()
	for _, c := range tr.Log.Checkpoints {
		h.Write(c.State)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != checkpointStatesSHA256 {
		t.Fatalf("checkpoint states sha256 %s, want %s", got, checkpointStatesSHA256)
	}
}
