// Package bufpool provides size-classed pooled byte buffers for the
// decode hot paths (replaylog record payloads, store exec payloads),
// and FreeList, a list of reusable state that the GC does not empty:
// the buffers' size classes, engine kits, frame scratch, checkpoint
// assembly, the log walker's reader, and the slices a loaded trace is
// decoded into (a log's records, a trace's IPDs and play outputs, a
// replay's outputs and events, the detectors' scratch). The load
// stage used to allocate a fresh make([]byte, n) per record — ~35MB of
// churn per audited trace at bench scale — almost all of which dies as
// soon as the trace is audited. An Arena turns that churn into pool round-trips.
//
// Ownership contract (documented in README "Performance"): buffers
// handed out by an Arena belong to the Arena's owner until Release is
// called. Release returns every outstanding buffer to the shared
// pools at once, so the caller must not retain any slice obtained
// from the Arena (or any sub-slice of one) past Release. Types that
// hold an Arena or FreeList values (replaylog.Log, detect.Trace,
// core.Execution) re-export this as their own Release method, which
// also caps what goes back on a FreeList (1 MB per value), so one
// outsized trace does not pin its memory; callers that never call
// Release just fall back to ordinary GC behavior — pooling is an
// optimization, never a correctness requirement.
package bufpool

import (
	"bufio"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Size classes are powers of two from minClass (4KB) to maxClass
// (4MB). Requests below minClass share the 4KB class (a replay log is
// decoded as thousands of small payloads; pooling them individually
// would cost more in pool traffic than it saves). Requests above
// maxClass are plainly allocated and never pooled — they are rare
// (giant payloads) and would pin too much memory.
const (
	minClassBits = 12 // 4 KiB
	maxClassBits = 22 // 4 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// classes holds each size class's free blocks. They are FreeLists, not
// sync.Pools, so that a collection between two decodes does not turn
// the second into fresh allocations.
var classes [numClasses]FreeList[block]

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

// block is one pooled buffer.
type block struct {
	buf []byte
	cls int
}

func getClass(c int) *block {
	if b := classes[c].Get(); b != nil {
		return b
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

// A FreeList drops a value nobody has taken for freeListIdle: far
// longer than the gap between two uses by a busy auditor, short
// enough that one that has stopped auditing, or runs fewer workers
// than it did, gives the memory back.
var freeListIdle = 5 * time.Second // a variable so tests can shorten it

// FreeList is a stack of reusable values for state that is costly to
// rebuild and used in steady state: engine kits, frame scratch. Unlike
// sync.Pool it does not drop what it holds when the GC runs, so a
// collection between two uses does not turn the second into a
// rebuild, and what a process allocates per operation does not depend
// on when the GC happened to run. It has no count bound: it keeps as
// many values as were out at once, and the idle drop alone trims it
// once fewer are in use. The zero value is ready to use, and a
// FreeList is safe for concurrent use.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []idleValue[T] // oldest first; Get takes the newest
	trim  *time.Timer    // armed while items is not empty
}

type idleValue[T any] struct {
	x     *T
	since time.Time
}

// Get pops the most recently returned value, or returns nil.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1].x
	l.items[n-1] = idleValue[T]{}
	l.items = l.items[:n-1]
	return x
}

// Put returns x for reuse.
func (l *FreeList[T]) Put(x *T) { l.put(x, time.Now()) }

// put is Put at the instant now.
func (l *FreeList[T]) put(x *T, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, idleValue[T]{x: x, since: now})
	if len(l.items) > 1 {
		return // the timer is armed for an older value
	}
	if l.trim == nil {
		l.trim = time.AfterFunc(freeListIdle, func() { l.dropIdle(time.Now()) })
	} else {
		l.trim.Reset(freeListIdle)
	}
}

// dropIdle drops the values idle for freeListIdle or longer at the
// instant now and re-arms the timer for the oldest one left.
func (l *FreeList[T]) dropIdle(now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.items) && now.Sub(l.items[n].since) >= freeListIdle {
		n++
	}
	kept := copy(l.items, l.items[n:])
	clear(l.items[kept:])
	l.items = l.items[:kept]
	if kept > 0 {
		l.trim.Reset(freeListIdle - now.Sub(l.items[0].since))
	}
}
