package core

import (
	"sanity/internal/bufpool"
	"sanity/internal/hw"
	"sanity/internal/replaylog"
	"sanity/internal/ringbuf"
	"sanity/internal/svm"
)

// kit is the host memory an engine runs in, reused from one engine to
// the next: the platform (hw.NewPlatform allocates the cache, TLB and
// stamp arrays, megabytes on a realistic machine model), the two ring
// buffers with their slot storage, the log's record stream split by
// kind, the buffer a poll copies a packet into, and the arena the VM
// heap is carved from, fresh or restored. An engine owns its kit from
// newEngine to release (it embeds it, so e.plat is its kit's
// platform); nothing an engine returns (Execution, log) points into it.
type kit struct {
	plat    *hw.Platform
	st      *ringbuf.ST
	ts      *ringbuf.TS
	packets []replaylog.Record
	values  []replaylog.Record
	polled  []byte
	arena   *svm.Arena
}

// kits keeps as many idle kits as engines ran at once, for as long as
// they keep being reused. A kit serves any machine type and profile:
// acquireKit reshapes its platform for the engine's configuration, and
// a platform once shaped for the largest machine type reshapes to any
// other without allocating, so a worker that alternates machine types
// keeps one kit, not one per type.
var kits bufpool.FreeList[kit]

// acquireKit returns an idle kit reshaped to the state a new one has
// for cfg's machine, profile and seed, or builds one.
func acquireKit(cfg *Config) (*kit, error) {
	if k := kits.Get(); k != nil {
		if err := k.plat.Reshape(cfg.Machine, cfg.Profile, cfg.Seed); err != nil {
			kits.Put(k)
			return nil, err
		}
		k.st.AlignResume(0)
		k.ts.AlignResume(0)
		return k, nil
	}
	plat, err := hw.NewPlatform(cfg.Machine, cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	access := func(addr int64, write bool) { plat.Access(addr, 8, write) }
	return &kit{
		plat:  plat,
		st:    ringbuf.NewST(stBufferAddr, ringCapacity, access),
		ts:    ringbuf.NewTS(tsBufferAddr, ringCapacity, access),
		arena: new(svm.Arena),
	}, nil
}

// splitRecords partitions the record stream into the kit's per-kind
// slices. The Record values are copied; payloads still belong to the
// log, which outlives the run.
func (k *kit) splitRecords(recs []replaylog.Record) {
	for _, r := range recs {
		if r.Kind == replaylog.KindPacket {
			k.packets = append(k.packets, r)
		} else {
			k.values = append(k.values, r)
		}
	}
}

// releaseKit returns k to its free list, first dropping every pointer
// it holds into the run it served (log payloads, the VM heap).
func releaseKit(k *kit) {
	clear(k.packets)
	clear(k.values)
	k.packets, k.values = k.packets[:0], k.values[:0]
	k.arena.Reset()
	kits.Put(k)
}
