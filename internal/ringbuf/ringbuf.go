// Package ringbuf implements the two in-memory ring buffers through
// which the timed core (TC) and the supporting core (SC) communicate
// (paper §3.4): the S-T buffer carries asynchronous inputs (network
// packets) from the SC to the TC, and the T-S buffer carries outputs
// and logged nondeterministic values (e.g. nanoTime results) from the
// TC to the SC.
//
// The package also implements the paper's two symmetry mechanisms
// (§3.5), which make the TC's control flow and memory accesses
// identical during play and replay:
//
//   - AccessWord is the playMask read/write-combining algorithm of
//     Figure 4: the same load-mask-or-store sequence writes the value
//     to the buffer during play (mask = all ones) and reads it from
//     the buffer during replay (mask = zero), with no branch taken.
//
//   - The S-T buffer maintains a "fake" sentinel entry whose
//     timestamp is infinity; the TC's next-entry check therefore
//     always executes the same comparison whether or not input is
//     available, and consuming an entry always reads, checks, and
//     writes the timestamp word.
//
// All TC-side operations report their word-granularity memory traffic
// through an Access callback, so the engine can charge them against
// the simulated cache hierarchy; SC-side operations are free for the
// TC (they happen on the other core) but their DMA can be modeled by
// the engine via bus-contention windows.
package ringbuf

import (
	"errors"
	"math"
)

// PlayMask is the mask value during the original execution.
const PlayMask = int64(-1)

// ReplayMask is the mask value during replay.
const ReplayMask = int64(0)

// InfTimestamp marks the fake sentinel entry at the end of the S-T
// buffer; no instruction counter ever reaches it.
const InfTimestamp = int64(math.MaxInt64)

// FreshTimestamp marks an entry the SC has just appended during play;
// the TC recognizes it and replaces it with the current instruction
// count.
const FreshTimestamp = int64(0)

// Access is the TC-side memory-charging hook: one word (8-byte)
// access at the given virtual address.
type Access func(addr int64, write bool)

// AccessWord is the symmetric read/write of paper Figure 4 on a
// buffer slot: during play (mask all ones) it stores value into the
// slot and returns value; during replay (mask zero) it returns the
// slot's current content. Both phases perform one load and one store.
func AccessWord(value int64, slot *int64, mask int64) int64 {
	temp := value & mask
	temp |= *slot &^ mask
	*slot = temp
	return temp
}

// ErrFull is returned when a producer outruns the consumer.
var ErrFull = errors.New("ringbuf: buffer full")

// ring is a fixed-capacity queue of word records. Word storage is
// recycled: emptying a slot moves its words to spare, and filling a
// slot takes them back, so a ring in steady state allocates nothing
// and holds only as much storage as it ever held entries at once.
type ring struct {
	base   int64     // virtual address of slot 0 (for access charging)
	slots  [][]int64 // nil entries are empty slots
	spare  [][]int64 // storage of emptied slots
	head   int
	tail   int
	count  int
	access Access
}

func newRing(base int64, capacity int, access Access) *ring {
	if access == nil {
		access = func(int64, bool) {}
	}
	return &ring{base: base, slots: make([][]int64, capacity), access: access}
}

// fill makes slot i hold a zeroed record of n words and returns it.
func (r *ring) fill(i, n int) []int64 {
	r.empty(i)
	var w []int64
	if k := len(r.spare); k > 0 {
		w = r.spare[k-1]
		r.spare = r.spare[:k-1]
	}
	if cap(w) < n {
		w = make([]int64, n)
	} else {
		w = w[:n]
		clear(w)
	}
	r.slots[i] = w
	return w
}

// empty marks slot i empty, keeping its storage for the next fill.
func (r *ring) empty(i int) {
	if w := r.slots[i]; w != nil {
		r.spare = append(r.spare, w)
		r.slots[i] = nil
	}
}

// addr returns the virtual address of word w of slot i, for charging.
// Slots are spaced a cache line apart plus payload words.
func (r *ring) addr(i, w int) int64 {
	return r.base + int64(i)*256 + int64(w)*8
}

// STEntry is one input record: a timestamp word (instruction count at
// which the TC consumed/must consume it) and a payload.
type STEntry struct {
	Timestamp int64
	Payload   []byte
}

// ST is the SC-to-TC input buffer.
type ST struct {
	r *ring
}

// NewST builds an S-T buffer with the given slot capacity. The buffer
// initially holds only the fake sentinel entry.
func NewST(base int64, capacity int, access Access) *ST {
	st := &ST{r: newRing(base, capacity, access)}
	st.scPushSentinel()
	return st
}

func (s *ST) scPushSentinel() {
	r := s.r
	r.fill(r.tail, 2)[0] = InfTimestamp
	r.tail = (r.tail + 1) % len(r.slots)
	r.count++
}

// SCPush appends an input entry from the supporting core. During
// play, ts must be FreshTimestamp; during replay, ts is the logged
// instruction count. Following §3.5, the SC overwrites the previous
// fake entry and appends a new one. SC-side work is not charged to
// the TC.
func (s *ST) SCPush(payload []byte, ts int64) error {
	r := s.r
	if r.count+1 > len(r.slots) {
		return ErrFull
	}
	// Overwrite the sentinel (one slot back from tail).
	idx := (r.tail - 1 + len(r.slots)) % len(r.slots)
	words := r.fill(idx, 2+(len(payload)+7)/8)
	words[0] = ts
	words[1] = int64(len(payload))
	packBytes(words[2:], payload)
	s.scPushSentinel()
	return nil
}

// TCPoll is the timed core's next-entry check: it reads the head
// entry's timestamp, compares it against the current instruction
// count, and either consumes the entry (writing the timestamp word
// via the symmetric access) or leaves it. The memory accesses and the
// comparison are identical whether the head is a real entry or the
// sentinel — that is the point of the protocol.
//
// now is the TC's instruction counter; mask is PlayMask or
// ReplayMask. It returns the payload and the timestamp word's final
// value (the logged delivery point), or ok == false when no entry is
// due. The payload is copied into buf when it is large enough (a
// caller that polls in a loop reuses one buffer), else into a fresh
// slice.
func (s *ST) TCPoll(now int64, mask int64, buf []byte) (payload []byte, ts int64, ok bool) {
	r := s.r
	slot := r.slots[r.head]
	r.access(r.addr(r.head, 0), false) // read timestamp
	tsWord := slot[0]
	// During play a fresh entry carries FreshTimestamp (0), which the
	// TC replaces with the current count; during replay the logged
	// timestamp gates delivery. The comparison below covers both: the
	// sentinel's +inf never passes.
	if tsWord > now {
		return nil, 0, false
	}
	ts = AccessWord(now, &slot[0], mask)
	r.access(r.addr(r.head, 0), true) // timestamp write-back
	n := slot[1]
	r.access(r.addr(r.head, 1), false)
	if int64(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	unpackBytes(payload, slot[2:])
	for w := 0; w < int(n+7)/8; w++ {
		r.access(r.addr(r.head, 2+w), false)
	}
	r.empty(r.head)
	r.head = (r.head + 1) % len(r.slots)
	r.count--
	return payload, ts, true
}

// Pending returns the number of real (non-sentinel) entries queued.
func (s *ST) Pending() int { return s.r.count - 1 }

// TS is the TC-to-SC buffer. It carries two entry kinds: outputs
// (forwarded by the SC during play, discarded during replay) and
// events (nondeterministic values written during play and injected
// during replay via the symmetric access).
type TS struct {
	r *ring
}

// TS entry kinds.
const (
	TSOutput = int64(0)
	TSEvent  = int64(1)
)

// NewTS builds a T-S buffer.
func NewTS(base int64, capacity int, access Access) *TS {
	return &TS{r: newRing(base, capacity, access)}
}

// TCSendOutput appends an output record. Outputs are deterministic,
// so both play and replay perform plain writes — there is no
// asymmetry to compensate for.
func (t *TS) TCSendOutput(payload []byte) error {
	r := t.r
	if r.count >= len(r.slots) {
		return ErrFull
	}
	words := r.fill(r.tail, 2+(len(payload)+7)/8)
	words[0] = TSOutput
	words[1] = int64(len(payload))
	packBytes(words[2:], payload)
	r.access(r.addr(r.tail, 0), true)
	r.access(r.addr(r.tail, 1), true)
	for w := 0; w < (len(payload)+7)/8; w++ {
		r.access(r.addr(r.tail, 2+w), true)
	}
	r.tail = (r.tail + 1) % len(r.slots)
	r.count++
	return nil
}

// TCEvent records (play) or injects (replay) one nondeterministic
// value, e.g. a nanoTime result: the slot is pre-seeded by the SC
// during replay (SCPreloadEvent), and the symmetric access either
// stores the live value (play) or returns the seeded one (replay).
func (t *TS) TCEvent(value int64, mask int64) (int64, error) {
	r := t.r
	if r.count >= len(r.slots) {
		return 0, ErrFull
	}
	slot := r.slots[r.tail]
	if slot == nil {
		slot = r.fill(r.tail, 3)
	}
	slot[0] = TSEvent
	slot[1] = 1
	r.access(r.addr(r.tail, 0), true)
	r.access(r.addr(r.tail, 1), true)
	r.access(r.addr(r.tail, 2), false) // symmetric access: load...
	out := AccessWord(value, &slot[2], mask)
	r.access(r.addr(r.tail, 2), true) // ...then store
	r.tail = (r.tail + 1) % len(r.slots)
	r.count++
	return out, nil
}

// SCPreloadEvent seeds the next event slot with a logged value during
// replay. The SC runs ahead of the TC, so the slot to seed is always
// the TC's next tail position offset by the number of unseeded
// entries; engines call it immediately before the TC's access.
func (t *TS) SCPreloadEvent(value int64) {
	r := t.r
	w := r.fill(r.tail, 3)
	w[0], w[1], w[2] = TSEvent, 1, value
}

// SCDiscard removes every queued record (SC side, uncharged) without
// looking at it: the SC forwards outputs only during play, outside the
// machine, and what it does with them never reaches the TC.
func (t *TS) SCDiscard() {
	r := t.r
	for ; r.count > 0; r.count-- {
		r.empty(r.head)
		r.head = (r.head + 1) % len(r.slots)
	}
}

// Pending returns the number of queued records.
func (t *TS) Pending() int { return t.r.count }

// RingState is a serializable snapshot of one ring's contents and
// cursors, captured at a checkpoint boundary and restored when a
// windowed replay resumes mid-stream (an input the SC pushed before
// the boundary may still be queued, unconsumed, across it).
type RingState struct {
	Head, Tail, Count int
	Slots             [][]int64 // len == capacity; nil entries are empty slots
}

// snapshot copies the ring's state. There is deliberately no inverse:
// a resumed replay never installs play-side ring *contents* (pending
// inputs are re-injected from the log at their recorded instruction
// counts); it only re-derives the cursors via AlignResume. The
// snapshot travels in checkpoints as recorded-state evidence.
func (r *ring) snapshot() RingState {
	st := RingState{Head: r.head, Tail: r.tail, Count: r.count, Slots: make([][]int64, len(r.slots))}
	for i, s := range r.slots {
		if s != nil {
			st.Slots[i] = append([]int64(nil), s...)
		}
	}
	return st
}

// State snapshots the S-T buffer.
func (s *ST) State() RingState { return s.r.snapshot() }

// State snapshots the T-S buffer.
func (t *TS) State() RingState { return t.r.snapshot() }

// align empties every slot and puts both cursors at slot pos mod n.
func (r *ring) align(pos int64) {
	for i := range r.slots {
		r.empty(i)
	}
	idx := int(pos % int64(len(r.slots)))
	r.head, r.tail, r.count = idx, idx, 0
}

// AlignResume positions an S-T buffer as it stands during replay
// after consumed entries have been pushed and consumed: only the
// sentinel remains, at the slot the cursor has ring-advanced to.
// Cursor positions matter beyond bookkeeping — the TC charges its
// buffer traffic at slot-dependent virtual addresses, so a resumed
// replay must touch the same addresses a full replay does.
// AlignResume(0) returns a used buffer to its state from NewST.
func (s *ST) AlignResume(consumed int64) {
	s.r.align(consumed)
	s.scPushSentinel()
}

// AlignResume positions a T-S buffer as it stands during replay
// after drained entries (outputs and events) have passed through:
// empty, with the cursors ring-advanced past them. AlignResume(0)
// returns a used buffer to its state from NewTS.
func (t *TS) AlignResume(drained int64) {
	t.r.align(drained)
}

// packBytes packs b little-endian into words, which must be zero.
func packBytes(words []int64, b []byte) {
	for i, c := range b {
		words[i/8] |= int64(c) << (uint(i%8) * 8)
	}
}

// unpackBytes is the inverse of packBytes.
func unpackBytes(b []byte, words []int64) {
	for i := range b {
		b[i] = byte(uint64(words[i/8]) >> (uint(i%8) * 8))
	}
}
