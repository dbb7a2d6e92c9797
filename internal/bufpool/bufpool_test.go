package bufpool

import (
	"bytes"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 0}, {4096, 0}, {4097, 1}, {8192, 1}, {8193, 2},
		{1 << 22, numClasses - 1}, {1<<22 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestArenaAllocAndRelease(t *testing.T) {
	var a Arena
	bufs := make([][]byte, 0, 100)
	for i := 0; i < 100; i++ {
		b := a.Alloc(100 + i)
		if len(b) != 100+i {
			t.Fatalf("Alloc(%d) returned len %d", 100+i, len(b))
		}
		for j := range b {
			b[j] = byte(i)
		}
		bufs = append(bufs, b)
	}
	// All slices must remain distinct and intact until Release.
	for i, b := range bufs {
		for _, v := range b {
			if v != byte(i) {
				t.Fatalf("buffer %d corrupted: got %d", i, v)
			}
		}
	}
	if a.Outstanding() == 0 {
		t.Fatal("expected pooled blocks outstanding")
	}
	a.Release()
	if a.Outstanding() != 0 {
		t.Fatalf("Outstanding() = %d after Release", a.Outstanding())
	}
	// Arena is reusable after Release.
	b := a.Alloc(64)
	if len(b) != 64 {
		t.Fatalf("post-Release Alloc: len %d", len(b))
	}
	a.Release()
}

// TestArenaSteadyStateDoesNotAllocate: once the pools and the arena's
// block list are warm, an alloc→release cycle is pool round-trips
// only. Pooling []byte directly boxed a slice header per returned
// block (staticcheck SA6002); pooling *block does not.
func TestArenaSteadyStateDoesNotAllocate(t *testing.T) {
	var a Arena
	cycle := func() {
		for j := 0; j < 8; j++ {
			a.Alloc(3000)
		}
		a.Alloc(100 << 10)
		a.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 && !raceEnabled {
		t.Fatalf("warm alloc→release cycle allocates %v times, want 0", n)
	}
	if Live() != 0 {
		t.Fatalf("Live() = %d after Release", Live())
	}
}

func TestArenaSliceCapsAreTight(t *testing.T) {
	// Appending to an arena slice must not scribble over a sibling.
	var a Arena
	defer a.Release()
	b1 := a.Alloc(16)
	b2 := a.Alloc(16)
	copy(b2, bytes.Repeat([]byte{7}, 16))
	_ = append(b1, 0xFF) // must reallocate, not touch b2
	for _, v := range b2 {
		if v != 7 {
			t.Fatal("append to sibling slice corrupted arena buffer")
		}
	}
}

func TestArenaOversized(t *testing.T) {
	var a Arena
	b := a.Alloc((1 << 22) + 1)
	if len(b) != (1<<22)+1 {
		t.Fatalf("oversized Alloc len = %d", len(b))
	}
	if a.Outstanding() != 0 {
		t.Fatal("oversized allocation must not be pooled")
	}
	a.Release()
}

func TestArenaCopy(t *testing.T) {
	var a Arena
	defer a.Release()
	src := []byte("hello, arena")
	dst := a.Copy(src)
	if !bytes.Equal(src, dst) {
		t.Fatalf("Copy = %q", dst)
	}
	src[0] = 'H'
	if dst[0] != 'h' {
		t.Fatal("Copy aliases source")
	}
	if got := a.Copy(nil); len(got) != 0 {
		t.Fatalf("Copy(nil) len = %d", len(got))
	}
}

func TestNilArena(t *testing.T) {
	var a *Arena
	b := a.Alloc(32)
	if len(b) != 32 {
		t.Fatalf("nil-arena Alloc len = %d", len(b))
	}
	a.Release() // must not panic
	if a.Outstanding() != 0 {
		t.Fatal("nil arena Outstanding != 0")
	}
}

func TestScratchGrow(t *testing.T) {
	var s Scratch
	b1 := s.Grow(100)
	if len(b1) != 100 {
		t.Fatalf("Grow(100) len = %d", len(b1))
	}
	b2 := s.Grow(50)
	if len(b2) != 50 {
		t.Fatalf("Grow(50) len = %d", len(b2))
	}
	if &b1[0] != &b2[0] {
		t.Fatal("Grow reallocated despite sufficient capacity")
	}
	b3 := s.Grow(1000)
	if len(b3) != 1000 {
		t.Fatalf("Grow(1000) len = %d", len(b3))
	}
}

func BenchmarkArenaAlloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var a Arena
		for j := 0; j < 64; j++ {
			_ = a.Alloc(512)
		}
		a.Release()
	}
}
