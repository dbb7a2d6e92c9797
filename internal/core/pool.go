package core

import (
	"sync"

	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// recBufs is the per-replay scratch an engine needs to walk a log:
// the record stream split by kind. The split used to be allocated per
// replay (replaylog.Packets/Values); the audit pipeline replays one
// log per job across a worker pool, so the slices are pooled and the
// Record values copied into them — payload backing arrays still
// belong to the log, which outlives the run.
type recBufs struct {
	packets []replaylog.Record
	values  []replaylog.Record
}

var recBufPool = sync.Pool{New: func() any { return &recBufs{} }}

// scratchPool recycles checkpoint-restore scratch across engines, so
// consecutive windowed audits on one worker carve their VM heaps from
// the same slabs. An engine owns its scratch from resumeAt to release.
var scratchPool = sync.Pool{New: func() any { return new(svm.RestoreScratch) }}

// splitRecords partitions the record stream into pooled per-kind
// slices. Callers must release() the result when the run is over.
func splitRecords(recs []replaylog.Record) *recBufs {
	b := recBufPool.Get().(*recBufs)
	b.packets = b.packets[:0]
	b.values = b.values[:0]
	for _, r := range recs {
		if r.Kind == replaylog.KindPacket {
			b.packets = append(b.packets, r)
		} else {
			b.values = append(b.values, r)
		}
	}
	return b
}

// release returns the scratch to the pool. The record values held in
// the slices are dropped on next reuse; payloads are never owned by
// the pool.
func (b *recBufs) release() {
	recBufPool.Put(b)
}
