// Package bufpool provides size-classed pooled byte buffers for the
// decode hot paths (replaylog records, checkpoint state blobs, store
// exec payloads). The load stage used to allocate a fresh
// make([]byte, n) per record — ~35MB of churn per audited trace at
// bench scale — almost all of which dies as soon as the trace is
// audited. An Arena turns that churn into pool round-trips.
//
// Ownership contract (documented in README "Performance"): buffers
// handed out by an Arena belong to the Arena's owner until Release is
// called. Release returns every outstanding buffer to the shared
// pools at once, so the caller must not retain any slice obtained
// from the Arena (or any sub-slice of one) past Release. Types that
// embed an Arena (replaylog.Log, detect.Trace) re-export this as
// their own Release method; callers that never call Release just fall
// back to ordinary GC behavior — pooling is an optimization, never a
// correctness requirement.
package bufpool

import (
	"bufio"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minClass (4KB) to maxClass
// (4MB). Requests below minClass share the 4KB class (a replay log is
// decoded as thousands of small payloads; pooling them individually
// would cost more in pool traffic than it saves). Requests above
// maxClass are plainly allocated and never pooled — they are rare
// (giant checkpoint states) and would pin too much memory.
const (
	minClassBits = 12 // 4 KiB
	maxClassBits = 22 // 4 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

var classes [numClasses]sync.Pool

// live counts the pooled blocks arenas currently hold, process-wide.
var live atomic.Int64

// Live reports how many pooled blocks are held by arenas that have not
// been released — leak accounting for tests of paths that must hand
// everything back (or never take anything).
func Live() int64 { return live.Load() }

func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// block is one pooled buffer. The pools hold *block, not []byte: a
// slice header stored in an interface is boxed, which would cost an
// allocation per returned block.
type block struct {
	buf []byte
	cls int
}

func getClass(c int) *block {
	if v := classes[c].Get(); v != nil {
		return v.(*block)
	}
	return &block{buf: make([]byte, 1<<(minClassBits+c)), cls: c}
}

// An Arena hands out byte slices carved from pooled blocks and
// returns all of them to the shared pools in one Release call. The
// zero value is ready to use. An Arena is not safe for concurrent
// use; decode paths are single-goroutine.
type Arena struct {
	blocks []*block // pooled blocks to return on Release
	cur    []byte   // remaining tail of the current block
}

// Alloc returns a zeroed-length-n slice owned by the arena. The
// contents are NOT zeroed beyond what the caller writes — callers
// fill the full slice (io.ReadFull et al) before reading it.
func (a *Arena) Alloc(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	if n == 0 {
		return []byte{}
	}
	if n <= len(a.cur) {
		s := a.cur[:n:n]
		a.cur = a.cur[n:]
		return s
	}
	c := classFor(n)
	if c < 0 {
		// Oversized: plain allocation, never pooled.
		return make([]byte, n)
	}
	// Start a new block. Carving from a fresh block wastes the old
	// tail, but blocks are already tracked for release so nothing
	// leaks — at most one partial tail per block is unused.
	b := getClass(c)
	live.Add(1)
	a.blocks = append(a.blocks, b)
	a.cur = b.buf[n:]
	return b.buf[:n:n]
}

// Copy is Alloc followed by copy: a pooled duplicate of src.
func (a *Arena) Copy(src []byte) []byte {
	if len(src) == 0 {
		return []byte{}
	}
	dst := a.Alloc(len(src))
	copy(dst, src)
	return dst
}

// Release returns every block to the shared pools and resets the
// arena for reuse. All slices previously returned by Alloc/Copy are
// invalid after Release — the caller must not read or write them.
// Safe on a nil or zero arena.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i, b := range a.blocks {
		classes[b.cls].Put(b)
		a.blocks[i] = nil
	}
	live.Add(-int64(len(a.blocks)))
	a.blocks = a.blocks[:0]
	a.cur = nil
}

// Outstanding reports the number of pooled blocks currently held —
// test hook for leak accounting.
func (a *Arena) Outstanding() int {
	if a == nil {
		return 0
	}
	return len(a.blocks)
}

// Scratch is a single reusable buffer for transient fixed-role reads
// (one store frame, one snapshot chunk): Grow returns a slice of
// length n backed by a buffer that is reused — and may be
// overwritten — on the next Grow. Callers must fully consume or copy
// the contents before calling Grow again.
type Scratch struct {
	buf []byte
}

// Grow returns s's buffer resized to length n, reallocating (with
// headroom) only when the capacity is insufficient.
func (s *Scratch) Grow(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n+n/4)
	}
	return s.buf[:n]
}

// Discard skips n bytes of br, failing exactly as io.ReadFull into an
// n-byte buffer would — for walks that validate a stream's framing
// without keeping its payloads.
func Discard(br *bufio.Reader, n int) error {
	d, err := br.Discard(n)
	if err == io.EOF && d > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}
