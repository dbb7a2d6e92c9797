// Checkpointed (windowed) replay. During play, the engine can
// periodically snapshot the machine's complete *functional* state —
// VM heap, threads, globals, the TC/SC ring buffers, the DMA flag —
// into the replay log (replaylog.Checkpoint), turning each snapshot
// point into a quiescence boundary (§3.6 applied mid-run). An auditor
// that only cares about an IPD window [from, to) then restores the
// last checkpoint at or before the window and replays forward just
// far enough, instead of replaying from virtual time zero.
//
// Why this reproduces the full replay bit for bit: at a quiescence
// boundary the platform's timing state is re-derived from
// (machine spec, noise profile, epochSeed(cfg.Seed, boundary)) alone
// — Platform.Quiesce flushes the caches and TLB, re-pins the page
// mapper, and reschedules every noise process relative to the clock.
// The functional state at the boundary is identical in play and in
// any replay (that is deterministic replay's invariant), so the
// recorded snapshot plus the auditor's own epoch key reconstructs
// exactly the state a full replay has when it crosses the boundary.
// Nothing about the recorded machine's *timing* survives into the
// resumed replay: the snapshot is treated like the rest of the log —
// functional claims to be checked by replaying and comparing outputs.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"sanity/internal/hw"
	"sanity/internal/obs"
	"sanity/internal/replaylog"
	"sanity/internal/ringbuf"
	"sanity/internal/svm"
)

// ckptBlobVersion tags the engine-level checkpoint encoding carried
// opaquely inside replaylog.Checkpoint.State.
const ckptBlobVersion = 1

// ringSlotCap bounds the words a restored ring slot may claim.
const ringSlotCap = 1 << 16

// captureCheckpoint snapshots the engine's functional state and
// appends it to the log being recorded. It runs inside the io.send
// native, so the VM state is captured "as of native completion" with
// the send's result already applied.
func (e *engine) captureCheckpoint(ctx *svm.NativeCtx, result svm.Value) error {
	var buf bytes.Buffer
	buf.WriteByte(ckptBlobVersion)
	if e.plat.DMAActive() {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	encodeRing(&buf, e.st.State())
	encodeRing(&buf, e.ts.State())
	if err := ctx.VM.EncodeStateMidNative(&buf, result); err != nil {
		return err
	}
	e.log.Checkpoints = append(e.log.Checkpoints, replaylog.Checkpoint{
		Instr:      ctx.VM.InstrCount,
		Outputs:    e.sendCount,
		Records:    int64(len(e.log.Records)),
		PlayCycles: e.plat.Cycles(),
		State:      buf.Bytes(),
	})
	return nil
}

func encodeRing(buf *bytes.Buffer, st ringbuf.RingState) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		buf.Write(b[:])
	}
	put(int64(st.Head))
	put(int64(st.Tail))
	put(int64(st.Count))
	put(int64(len(st.Slots)))
	for _, slot := range st.Slots {
		if slot == nil {
			put(-1)
			continue
		}
		put(int64(len(slot)))
		for _, w := range slot {
			put(w)
		}
	}
}

// skipRing structurally validates the encoded ring state at the head
// of b without materializing it, and returns what follows — the
// restore path walks the play-side rings only to check the blob's
// shape (the cursors are re-derived from the record prefix; see
// resumeAt).
func skipRing(b []byte) ([]byte, error) {
	get := func() (int64, error) {
		if len(b) < 8 {
			b = nil
			return 0, io.ErrUnexpectedEOF
		}
		v := int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v, nil
	}
	for i := 0; i < 3; i++ { // head, tail, count
		if _, err := get(); err != nil {
			return nil, fmt.Errorf("core: checkpoint ring header: %w", err)
		}
	}
	n, err := get()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint ring header: %w", err)
	}
	if n < 0 || n > ringSlotCap {
		return nil, fmt.Errorf("core: checkpoint ring of %d slots", n)
	}
	for i := int64(0); i < n; i++ {
		ln, err := get()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint ring slot %d: %w", i, err)
		}
		if ln < 0 {
			continue
		}
		if ln > ringSlotCap {
			return nil, fmt.Errorf("core: checkpoint ring slot of %d words", ln)
		}
		if int64(len(b)) < 8*ln {
			return nil, fmt.Errorf("core: checkpoint ring slot %d words: %w", i, io.ErrUnexpectedEOF)
		}
		b = b[8*ln:]
	}
	return b, nil
}

// ReplayTDRWindow reproduces only the IPD window [fromIPD, toIPD) of
// an execution: it restores the log's last checkpoint at or before
// the window (falling back to a replay from virtual time zero when
// the log carries none — every pre-checkpointing corpus), replays
// forward, and halts as soon as output toIPD has been emitted. The
// returned execution holds the outputs from the resume point on, with
// their original absolute sequence numbers; CompareWindow aligns them
// against the recorded execution.
//
// The replayed window's output timings are bit-identical to the same
// output range of a full ReplayTDR with the same configuration — the
// property the differential tests pin — so windowing can never change
// a verdict relative to scoring the same window out of a full replay.
func ReplayTDRWindow(prog *svm.Program, log *replaylog.Log, cfg Config, fromIPD, toIPD int) (*Execution, error) {
	return ReplayTDRWindowCtx(context.Background(), prog, log, cfg, fromIPD, toIPD)
}

// ReplayTDRWindowCtx is ReplayTDRWindow with context-carried
// observability: with an obs.Observer on the context, the checkpoint
// restore and the bounded replay each become a span ("restore",
// "replay"), decomposing windowed-audit cost.
func ReplayTDRWindowCtx(ctx context.Context, prog *svm.Program, log *replaylog.Log, cfg Config, fromIPD, toIPD int) (*Execution, error) {
	if log.Program != prog.Name {
		return nil, fmt.Errorf("core: log was recorded for program %q, not %q", log.Program, prog.Name)
	}
	if fromIPD < 0 || toIPD < fromIPD {
		return nil, fmt.Errorf("core: invalid IPD window [%d, %d)", fromIPD, toIPD)
	}
	if fromIPD == toIPD {
		// An empty window has nothing to reproduce.
		return &Execution{Mode: ModeReplayTDR}, nil
	}
	win, err := log.Window(fromIPD, toIPD)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(prog, cfg, ModeReplayTDR)
	if err != nil {
		return nil, err
	}
	defer e.release()
	// IPD toIPD-1 spans outputs toIPD-1 and toIPD, so the replay is
	// done once toIPD+1 outputs exist.
	e.stopAfterOutputs = int64(toIPD) + 1
	if win.Start == nil {
		e.setReplayLog(log)
		e.boundaries = boundaryOutputs(log)
	} else {
		_, sp := obs.StartSpan(ctx, obs.StageRestore)
		err := e.resumeAt(log, win)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: restoring checkpoint at output %d: %w", win.Start.Outputs, err)
		}
	}
	_, sp := obs.StartSpan(ctx, obs.StageReplay)
	runErr := e.run()
	sp.End()
	if runErr != nil {
		return nil, runErr
	}
	return e.exec, nil
}

// resumeAt restores the engine's functional state from a window's
// checkpoint and positions every cursor for the record suffix. The
// restored VM heap is carved from the kit's arena: it stays the VM's
// until release hands the kit back, and nothing the engine returns
// (Execution, log) points into it.
func (e *engine) resumeAt(full *replaylog.Log, win *replaylog.LogWindow) error {
	c := win.Start
	blob := c.State
	if len(blob) < 2 { // version, DMA flag
		return fmt.Errorf("core: checkpoint state header: %w", io.ErrUnexpectedEOF)
	}
	if version := blob[0]; version != ckptBlobVersion {
		return fmt.Errorf("core: unsupported checkpoint state version %d", version)
	}
	dma := blob[1]
	// The play-side ring states are decoded for structural validation
	// but deliberately NOT restored: entries pending in the S-T ring
	// at the boundary are inputs the SC had pushed that the TC had
	// not consumed yet, and their consumption records are in the
	// record suffix — a replay injects inputs exclusively from the
	// log at their recorded instruction counts, and a full replay
	// provably holds no pending entry when it crosses a send boundary
	// (a record's instruction count is its consumption point, so
	// nothing pre-pushes across the boundary). What must carry over
	// is the ring *cursors*, which determine the virtual addresses
	// the TC's buffer traffic is charged at; they are re-derived from
	// the record prefix below, matching the full replay's exactly.
	blob, err := skipRing(blob[2:])
	if err != nil {
		return err
	}
	if blob, err = skipRing(blob); err != nil {
		return err
	}
	if err := e.vm.RestoreState(blob); err != nil {
		return err
	}
	// The state's instruction counter must be the boundary's: the
	// replay skips idle time up to each record's instruction count, so
	// a counter far off the log's would have it model idle time (and
	// fire noise events) for as long as that distance says.
	if e.vm.InstrCount != c.Instr {
		return fmt.Errorf("core: checkpoint state is at instruction %d, its checkpoint at %d", e.vm.InstrCount, c.Instr)
	}
	valuesBefore := c.Records - win.SkippedPackets
	e.st.AlignResume(win.SkippedPackets)
	e.ts.AlignResume(c.Outputs + valuesBefore)
	e.setReplayLog(win.Suffix)
	e.plat.RestoreCycles(c.PlayCycles)
	e.plat.SetDMAActive(dma != 0)
	e.sendCount = c.Outputs
	e.startOutputs = c.Outputs
	e.resumed = true
	// Later boundaries still apply; earlier ones are behind us.
	e.boundaries = boundaryOutputs(full)
	for e.nextBoundary < len(e.boundaries) && e.boundaries[e.nextBoundary] <= c.Outputs {
		e.nextBoundary++
	}
	// The engine's random source must be in the state a full replay
	// has at the boundary: the same seed advanced once per sys.rand
	// drawn before it. (The drawn values are discarded under the
	// replay mask; restoring the state keeps the streams aligned
	// regardless.)
	e.rng = hw.NewRNG(e.cfg.Seed ^ 0xC0FFEE)
	e.rng.Skip(uint64(win.SkippedRandoms))
	return nil
}
