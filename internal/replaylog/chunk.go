package replaylog

import (
	"bytes"
	"hash/maphash"
)

// Content-defined chunking for the SANLOG3 checkpoint section.
// Consecutive checkpoint states are mostly the same guest heap, but
// heap growth shifts later bytes by amounts that are no page multiple,
// so fixed-size pages barely repeat. Boundaries cut where a rolling
// hash of the last 64 bytes hits a pattern do repeat: they move with
// the content. Only the writer chunks; a reader assembles whatever
// spans the log names, so changing these constants changes encodings,
// never what a decoder accepts.
const (
	minChunk = 256
	maxChunk = 4096
	// chunkMask selects the gear hash's top 10 bits; a boundary falls
	// where they are all zero, about once per KB past minChunk. The
	// top bits depend on the last 64 bytes, the low ones on far fewer.
	chunkMask = uint64(1<<10-1) << (64 - 10)
)

// gear is the rolling hash's byte table: fixed pseudo-random words
// (splitmix64 from a constant seed), so the same state always cuts at
// the same boundaries.
var gear = func() (t [256]uint64) {
	x := uint64(0x5A17E_C4E7)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		t[i] = z ^ z>>31
	}
	return t
}()

// nextCut returns the length of the chunk that opens b.
func nextCut(b []byte) int {
	if len(b) <= minChunk {
		return len(b)
	}
	b = b[:min(len(b), maxChunk)]
	// The hash only sees the last 64 bytes, so start it 64 bytes
	// before the first eligible boundary.
	var h uint64
	for _, c := range b[minChunk-64 : minChunk] {
		h = h<<1 + gear[c]
	}
	for i, c := range b[minChunk:] {
		h = h<<1 + gear[c]
		if h&chunkMask == 0 {
			return minChunk + i + 1
		}
	}
	return len(b)
}

// span is a run of the log's literal stream: the concatenation, in
// log order, of every literal byte the checkpoint section carries.
type span struct{ off, n int64 }

// op is one instruction of a state's assembly: copy a span of the
// literal stream, which a literal op first appends (bytes, from the
// state being encoded) and a reference op names by offset.
type op struct {
	span
	literal []byte // nil for a reference
}

// deduper is the writer's chunk index over one log's literal stream.
// Every distinct literal chunk is indexed once, under a hash of its
// bytes; a lookup compares bytes along the hash's chain, so each chunk
// references the first literal with its content whatever the hash
// (maphash's seed is random) and whatever collides.
type deduper struct {
	seed   maphash.Seed
	heads  map[uint64]int32 // newest indexed chunk with this hash
	chunks []indexed
	lits   int64 // literal stream length so far
	ops    []op
}

type indexed struct {
	op
	next int32 // older chunk with the same hash, or -1
}

// assemble returns the ops that rebuild state: each chunk is a
// reference to an earlier literal chunk with the same bytes or a new
// literal, and runs that are contiguous in the literal stream merge
// into one op.
func (d *deduper) assemble(state []byte) []op {
	if d.heads == nil {
		d.seed, d.heads = maphash.MakeSeed(), make(map[uint64]int32)
	}
	d.ops = d.ops[:0]
	for rest := state; len(rest) > 0; {
		n := nextCut(rest)
		chunk := rest[:n]
		rest = rest[n:]
		h := maphash.Bytes(d.seed, chunk)
		if s, ok := d.find(h, chunk); ok {
			d.push(op{span: s})
			continue
		}
		lit := op{span{d.lits, int64(n)}, chunk}
		next, ok := d.heads[h]
		if !ok {
			next = -1
		}
		d.heads[h] = int32(len(d.chunks))
		d.chunks = append(d.chunks, indexed{lit, next})
		d.push(lit)
		d.lits += int64(n)
	}
	return d.ops
}

// find returns the span of the indexed literal chunk with chunk's
// bytes, whose hash is h.
func (d *deduper) find(h uint64, chunk []byte) (span, bool) {
	i, ok := d.heads[h]
	for ; ok && i >= 0; i = d.chunks[i].next {
		if bytes.Equal(d.chunks[i].literal, chunk) {
			return d.chunks[i].span, true
		}
	}
	return span{}, false
}

// push appends o, merging it into the last op when both are literals
// (adjacent in the state, hence in the literal stream) or both are
// references to adjacent literal spans.
func (d *deduper) push(o op) {
	if k := len(d.ops) - 1; k >= 0 {
		last := &d.ops[k]
		if (last.literal == nil) == (o.literal == nil) && last.off+last.n == o.off {
			if o.literal != nil {
				last.literal = last.literal[:len(last.literal)+len(o.literal)]
			}
			last.n += o.n
			return
		}
	}
	d.ops = append(d.ops, o)
}
