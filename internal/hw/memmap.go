package hw

// PageMapper translates the TC's virtual pages to physical frames.
//
// The paper's point (§3.6): even with an identical virtual layout,
// different physical frames behind the pages change conflict patterns
// in physically-indexed caches, so Sanity "deterministically chooses
// the frames that will be mapped to the TC's address space". We model
// both behaviors: a pinned mapper assigns frames by a fixed rule, and
// an unpinned mapper assigns frames pseudo-randomly per run (the
// paging noise source), so two runs of the same program see different
// physical conflict patterns.
type PageMapper struct {
	pageSize int64
	pageBits uint
	frames   int64
	pinned   bool
	rng      *RNG
	table    map[int64]int64 // virtual page number -> frame
	nextSeq  int64           // next frame for pinned assignment
	// memo is a direct-mapped copy of installed table entries, so a
	// translation on the step-by-step path (a fetch or access the L1s'
	// virtual-line memos do not answer) is an array probe. It only ever
	// holds what the table holds and is cleared with it.
	memo [mapperMemoSize]mapping
}

// The memo has 1<<mapperMemoBits entries of 16 bytes: 4 KB per mapper.
const (
	mapperMemoBits = 8
	mapperMemoSize = 1 << mapperMemoBits
)

// mapping is one memo entry. The zero value matches no page.
type mapping struct {
	key   uint64 // pageKey of the page
	frame int64
}

func pageKey(vpn int64) uint64 { return uint64(vpn)<<1 | 1 }

// NewPageMapper builds a mapper. When pinned is true the mapping is
// the same in every run (sequential first-touch order, which is
// deterministic because the instruction stream is); otherwise frames
// are drawn from rng, so each run gets a different layout.
func NewPageMapper(spec MachineSpec, pinned bool, rng *RNG) *PageMapper {
	m := &PageMapper{rng: rng, table: make(map[int64]int64)}
	m.reshape(spec, pinned)
	return m
}

// reshape gives m spec's pages and frames and the pinned rule, leaving
// its contents to the caller's unmapAll.
func (m *PageMapper) reshape(spec MachineSpec, pinned bool) {
	m.pageSize = spec.PageSize
	m.pageBits = log2(spec.PageSize)
	m.frames = spec.Frames
	m.pinned = pinned
}

// unmapAll returns the mapper to its freshly built state, keeping its
// storage. It is the only operation that can move a page to another
// frame, so the platform forgets every line its L1s remember with it.
// The caller re-keys m.rng.
func (m *PageMapper) unmapAll() {
	clear(m.table)
	m.memo = [mapperMemoSize]mapping{}
	m.nextSeq = 0
}

// Translate maps a virtual address to a physical address, installing
// a frame on first touch.
//
// Only the first touch of a page changes state (it consumes the next
// sequential frame or a draw from the mapper's generator, and that
// order is part of the simulated machine), so it always takes the
// table path; the memo answers for pages already installed.
func (m *PageMapper) Translate(vaddr int64) int64 {
	vpn := vaddr >> m.pageBits
	if e := &m.memo[pageHash(vpn, mapperMemoBits)]; e.key == pageKey(vpn) {
		return e.frame<<m.pageBits | (vaddr & (m.pageSize - 1))
	}
	frame, ok := m.table[vpn]
	if !ok {
		if m.pinned {
			frame = m.nextSeq % m.frames
			m.nextSeq++
		} else {
			frame = m.rng.Int63n(m.frames)
		}
		m.table[vpn] = frame
	}
	m.memo[pageHash(vpn, mapperMemoBits)] = mapping{key: pageKey(vpn), frame: frame}
	return frame<<m.pageBits | (vaddr & (m.pageSize - 1))
}

// VPN returns the virtual page number of vaddr.
func (m *PageMapper) VPN(vaddr int64) int64 { return vaddr >> m.pageBits }

// Mapped returns the number of pages currently mapped.
func (m *PageMapper) Mapped() int { return len(m.table) }

// Pinned reports whether the mapper uses the deterministic rule.
func (m *PageMapper) Pinned() bool { return m.pinned }
