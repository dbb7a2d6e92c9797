package core

import (
	"testing"

	"sanity/internal/asm"
)

// cowSrc reads file "f", sends a marker, overwrites the array's first
// byte and sends the array, then reads "f" again and sends that.
const cowSrc = `
.program cow
.func main 0 1
    sconst "f"
    ncall fs.read 1
    store 0
    sconst "x"
    ncall io.send 1
    pop
    load 0
    iconst 0
    iconst 88
    astore
    load 0
    ncall io.send 1
    pop
    sconst "f"
    ncall fs.read 1
    ncall io.send 1
    pop
    ret
.end`

func cowConfig(seed uint64) Config {
	cfg := testConfig(seed)
	cfg.Files = map[string][]byte{"f": []byte("original")}
	return cfg
}

func outputPayloads(x *Execution) []string {
	var out []string
	for _, o := range x.Outputs {
		out = append(out, string(o.Payload))
	}
	return out
}

// TestFsReadCopyOnWrite: a guest store into an array fs.read returned
// lands in the guest's own copy. The next read of the file, in play
// and in replay, sees the original bytes, and Config.Files never
// changes.
func TestFsReadCopyOnWrite(t *testing.T) {
	prog := asm.MustAssemble("cow", cowSrc)
	cfg := cowConfig(3)
	want := []string{"x", "Xriginal", "original"}
	play, log, err := Play(prog, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputPayloads(play); len(got) != 3 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("play sent %q, want %q", got, want)
	}
	replay, err := ReplayTDR(prog, log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputPayloads(replay); len(got) != 3 || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("replay sent %q, want %q", got, want)
	}
	if got := string(cfg.Files["f"]); got != "original" {
		t.Fatalf("Config.Files[f] = %q after play and replay, want %q", got, "original")
	}
}

// TestSharedArraySnapshotRestoresOwned: a checkpoint taken while the
// guest still holds fs.read's array unwritten carries its bytes, and
// the windowed replay that restores it writes into a copy of its own:
// it reproduces play's outputs and leaves Config.Files unchanged.
func TestSharedArraySnapshotRestoresOwned(t *testing.T) {
	prog := asm.MustAssemble("cow", cowSrc)
	cfg := cowConfig(5)
	cfg.CheckpointEveryOutputs = 1
	play, log, err := Play(prog, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	win, err := ReplayTDRWindow(prog, log, cowConfig(6), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Outputs) != 2 || win.Outputs[0].Seq != 1 {
		t.Fatalf("windowed replay produced outputs %+v, want outputs 1 and 2", win.Outputs)
	}
	for _, o := range win.Outputs {
		if got, want := string(o.Payload), string(play.Outputs[o.Seq].Payload); got != want {
			t.Fatalf("windowed output %d = %q, play sent %q", o.Seq, got, want)
		}
	}
	if got := string(cfg.Files["f"]); got != "original" {
		t.Fatalf("Config.Files[f] = %q after a restored store, want %q", got, "original")
	}
}
