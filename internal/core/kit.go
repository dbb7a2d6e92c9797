package core

import (
	"sync"

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
// kind, and the scratch a checkpoint restore carves the VM heap from.
// An engine owns its kit from newEngine to release (it embeds it, so
// e.plat is its kit's platform); nothing an engine returns (Execution,
// log) points into it.
type kit struct {
	plat    *hw.Platform
	st      *ringbuf.ST
	ts      *ringbuf.TS
	packets []replaylog.Record
	values  []replaylog.Record
	scratch *svm.RestoreScratch
}

type kitKey struct {
	machine string
	profile string
}

// kitLists maps a kitKey to its *bufpool.FreeList[kit], which keeps
// as many idle kits as engines ran at once, for as long as they keep
// being reused. The lists are keyed by machine and profile name, and
// every reuse re-checks the full specs for equality, so a test that
// registers a divergent spec under a colliding name gets a fresh kit
// rather than a wrong geometry.
var kitLists sync.Map

func kitList(m hw.MachineSpec, p hw.NoiseProfile) *bufpool.FreeList[kit] {
	key := kitKey{machine: m.Name, profile: p.Name}
	if v, ok := kitLists.Load(key); ok {
		return v.(*bufpool.FreeList[kit])
	}
	v, _ := kitLists.LoadOrStore(key, new(bufpool.FreeList[kit]))
	return v.(*bufpool.FreeList[kit])
}

// acquireKit returns an idle kit for cfg's machine and profile, reset
// to the state a new one has for cfg.Seed, or builds one.
func acquireKit(cfg *Config) (*kit, error) {
	l := kitList(cfg.Machine, cfg.Profile)
	for k := l.Get(); k != nil; k = l.Get() {
		if k.plat.Spec != cfg.Machine || k.plat.Profile != cfg.Profile {
			continue // name collision with a different spec: drop it
		}
		k.plat.Reset(cfg.Seed)
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
		plat:    plat,
		st:      ringbuf.NewST(stBufferAddr, ringCapacity, access),
		ts:      ringbuf.NewTS(tsBufferAddr, ringCapacity, access),
		scratch: new(svm.RestoreScratch),
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
// it holds into the run it served (log payloads, the restored heap).
func releaseKit(k *kit) {
	clear(k.packets)
	clear(k.values)
	k.packets, k.values = k.packets[:0], k.values[:0]
	k.scratch.Reset()
	kitList(k.plat.Spec, k.plat.Profile).Put(k)
}
