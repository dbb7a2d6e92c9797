package core

import (
	"fmt"

	"sanity/internal/replaylog"
	"sanity/internal/svm"
)

// natives builds the engine's native-function set. These are the only
// doors between the VM and the world; every nondeterministic value
// crossing them is recorded during play and injected during replay.
func (e *engine) natives() map[string]svm.NativeFunc {
	return map[string]svm.NativeFunc{
		"io.recv":      e.nativeRecv,
		"io.recvblock": e.nativeRecvBlock,
		"io.send":      e.nativeSend,
		"sys.nanotime": e.nativeNanoTime,
		"sys.rand":     e.nativeRand,
		"sys.print":    e.nativePrint,
		"fs.read":      e.nativeFsRead,
	}
}

// nativeRecv is the non-blocking input poll: it returns the next due
// packet as a byte array, or null when none is available.
func (e *engine) nativeRecv(ctx *svm.NativeCtx) error {
	payload, ok, err := e.pollOnce()
	if err != nil {
		return err
	}
	if !ok {
		ctx.Result = svm.Null()
		return nil
	}
	ctx.Result = svm.RefV(ctx.VM.Heap.AllocBytes(payload))
	return nil
}

// nativeRecvBlock blocks until the next input (or returns null when
// the input schedule / log is exhausted — the end of the audited
// segment). Waiting is modeled as iterations of the fixed-cost poll
// loop, advanced arithmetically with SkipIdle so that the instruction
// counter lands exactly where the log says it must.
//
// The blocking form assumes a single runnable thread (the paper's
// prototype runs multithreaded Java entirely on one TC; its NFS
// server blocks the whole VM the same way). Multithreaded programs
// should use io.recv with their own yield loop.
func (e *engine) nativeRecvBlock(ctx *svm.NativeCtx) error {
	for _, t := range ctx.VM.Threads() {
		if t != ctx.Thread && t.State == svm.ThreadRunnable {
			return fmt.Errorf("io.recvblock requires a single runnable thread")
		}
	}
	for {
		payload, ok, err := e.pollOnce()
		if err != nil {
			return err
		}
		if ok {
			ctx.Result = svm.RefV(ctx.VM.Heap.AllocBytes(payload))
			return nil
		}
		switch e.mode {
		case ModePlay:
			if e.nextInput >= len(e.inputs) {
				ctx.Result = svm.Null()
				return nil
			}
			next := e.inputs[e.nextInput].ArrivalPs
			remaining := next - e.plat.TimePs()
			psPerIter := e.pollIterCycles * e.plat.PsPerCycle()
			iters := remaining/psPerIter + 1
			if iters < 1 {
				iters = 1
			}
			ctx.VM.SkipIdle(iters, e.pollIterInstr, e.pollIterCycles)
		case ModeReplayTDR:
			if e.nextPacket >= len(e.logPackets) && e.st.Pending() == 0 {
				ctx.Result = svm.Null()
				return nil
			}
			target := e.logPackets[e.nextPacket].Instr
			delta := target - ctx.VM.InstrCount
			if delta <= 0 {
				// Due now; preload and poll again.
				if err := e.preloadDue(); err != nil {
					return err
				}
				continue
			}
			iters := delta / e.pollIterInstr
			if iters < 1 {
				iters = 1
			}
			ctx.VM.SkipIdle(iters, e.pollIterInstr, e.pollIterCycles)
		case ModeReplayFunctional:
			// A conventional replay system skips idle phases: the
			// logged packet is injected immediately, with a
			// synchronous log read charged instead of a wait.
			if e.nextPacket >= len(e.logPackets) {
				ctx.Result = svm.Null()
				return nil
			}
			rec := e.logPackets[e.nextPacket]
			e.nextPacket++
			e.plat.AddCycles(2000 + int64(len(rec.Payload))*4) // log read
			e.event("packet.in")
			ctx.Result = svm.RefV(ctx.VM.Heap.AllocBytes(rec.Payload))
			return nil
		}
	}
}

// pollOnce performs one TC poll of the S-T buffer, with mode-specific
// delivery and logging around it. The payload it returns is only
// valid until the next poll: the guest gets a copy on its heap.
func (e *engine) pollOnce() ([]byte, bool, error) {
	switch e.mode {
	case ModePlay:
		if err := e.deliverDue(); err != nil {
			return nil, false, err
		}
		payload, ts, ok := e.st.TCPoll(e.vm.InstrCount, e.mask, e.polled)
		if !ok {
			return nil, false, nil
		}
		e.polled = payload
		e.log.AppendPacket(ts, e.plat.TimePs(), payload)
		e.plat.SetDMAActive(false)
		e.event("packet.in")
		return payload, true, nil
	case ModeReplayTDR:
		if err := e.preloadDue(); err != nil {
			return nil, false, err
		}
		payload, _, ok := e.st.TCPoll(e.vm.InstrCount, e.mask, e.polled)
		if !ok {
			return nil, false, nil
		}
		e.polled = payload
		e.plat.SetDMAActive(false)
		e.event("packet.in")
		return payload, true, nil
	default: // ModeReplayFunctional: non-blocking poll reads the log directly.
		if e.nextPacket >= len(e.logPackets) {
			return nil, false, nil
		}
		rec := e.logPackets[e.nextPacket]
		e.nextPacket++
		e.plat.AddCycles(2000 + int64(len(rec.Payload))*4)
		e.event("packet.in")
		return rec.Payload, true, nil
	}
}

// nativeSend transmits a byte array. This is also where the covert
// channel's delay primitive lives (§6.6): when a hook is configured
// (the compromised configuration), the TC stalls for the channel's
// chosen delay before the packet leaves.
func (e *engine) nativeSend(ctx *svm.NativeCtx) error {
	if len(ctx.Args) != 1 || ctx.Args[0].K != svm.KRef {
		return fmt.Errorf("io.send needs one byte-array argument")
	}
	o := ctx.VM.Heap.Get(ctx.Args[0].Ref())
	if o == nil || o.Kind != svm.ObjArrB {
		return fmt.Errorf("io.send argument is not a byte array")
	}
	if e.cfg.Hook != nil {
		delay := e.cfg.Hook(DelayCtx{
			PacketIndex: e.sendCount,
			TimePs:      e.plat.TimePs(),
			LastSendPs:  e.lastSendPs,
			PsPerCycle:  e.plat.PsPerCycle(),
		})
		if delay > 0 {
			// The primitive spins the timed core: pure cycles, no
			// instruction-count change (it is below the VM's ISA).
			e.plat.AddCycles(delay)
		}
	}
	payload := e.exec.pooled.payload(o.AB)
	if err := e.ts.TCSendOutput(payload); err != nil {
		return err
	}
	// The SC drains the buffer and (in play) forwards the packet; in
	// replay it discards it. Either way the TC-visible cost is the
	// buffer write above; capturing the output is measurement.
	e.ts.SCDiscard()
	out := OutputEvent{
		Seq:     int(e.sendCount),
		Instr:   ctx.VM.InstrCount,
		TimePs:  e.plat.TimePs(),
		Payload: payload,
	}
	e.exec.Outputs = append(e.exec.Outputs, out)
	e.sendCount++
	e.lastSendPs = out.TimePs
	e.event("packet.out")
	ctx.Result = svm.IntV(int64(len(payload)))
	if e.stopAfterOutputs > 0 && e.sendCount >= e.stopAfterOutputs {
		// The audited window is fully reproduced; end the replay here
		// instead of paying for the rest of the log.
		ctx.VM.Halt(0)
		return nil
	}
	return e.maybeBoundary(ctx, ctx.Result)
}

// maybeBoundary handles a quiescence boundary at the current output
// count. During play with checkpointing enabled, boundaries fall at
// multiples of the configured interval: the engine snapshots the
// functional machine state into the log, then re-quiesces the
// platform. During TDR replay, boundaries are wherever the log's
// checkpoints say the recorder quiesced, and only the re-quiesce
// happens, keyed by the replay configuration's own seed. Both sides
// cross each boundary at the identical point of the instruction
// stream (immediately after the same send), so the quiescence cost
// cancels out of the timing comparison.
func (e *engine) maybeBoundary(ctx *svm.NativeCtx, result svm.Value) error {
	switch e.mode {
	case ModePlay:
		k := int64(e.cfg.CheckpointEveryOutputs)
		if k <= 0 || e.sendCount%k != 0 {
			return nil
		}
		if err := e.captureCheckpoint(ctx, result); err != nil {
			return fmt.Errorf("checkpoint at output %d: %w", e.sendCount, err)
		}
		e.plat.Quiesce(epochSeed(e.cfg.Seed, e.sendCount))
	case ModeReplayTDR:
		if e.nextBoundary >= len(e.boundaries) || e.sendCount != e.boundaries[e.nextBoundary] {
			return nil
		}
		e.nextBoundary++
		e.plat.Quiesce(epochSeed(e.cfg.Seed, e.sendCount))
	}
	return nil
}

// nativeNanoTime returns the current time in virtual nanoseconds
// during play (and logs it); during TDR replay the logged value is
// injected through the T-S buffer's symmetric access, so the TC's
// control flow and memory traffic are identical (§3.5).
func (e *engine) nativeNanoTime(ctx *svm.NativeCtx) error {
	return e.loggedValue(ctx, replaylog.KindTimeRead, "time.read", e.plat.TimePs()/1000)
}

// nativeRand returns a logged pseudo-random value (§3.2: random
// decisions are avoided or logged).
func (e *engine) nativeRand(ctx *svm.NativeCtx) error {
	return e.loggedValue(ctx, replaylog.KindRandom, "random", int64(e.rng.Uint64()>>1))
}

// loggedValue implements the record-during-play / inject-during-replay
// protocol for one small nondeterministic value.
func (e *engine) loggedValue(ctx *svm.NativeCtx, kind replaylog.Kind, eventKind string, live int64) error {
	switch e.mode {
	case ModePlay:
		v, err := e.ts.TCEvent(live, e.mask)
		if err != nil {
			return err
		}
		e.ts.SCDiscard()
		e.log.AppendValue(kind, ctx.VM.InstrCount, e.plat.TimePs(), v)
		e.event(eventKind)
		ctx.Result = svm.IntV(v)
		return nil
	case ModeReplayTDR:
		if e.nextValue >= len(e.logValues) {
			return fmt.Errorf("replay log exhausted: program requested more %q values than were recorded", kind)
		}
		rec := e.logValues[e.nextValue]
		if rec.Kind != kind {
			return fmt.Errorf("replay log divergence: expected %q record, log has %q", kind, rec.Kind)
		}
		e.nextValue++
		e.ts.SCPreloadEvent(rec.Value)
		v, err := e.ts.TCEvent(live, e.mask)
		if err != nil {
			return err
		}
		e.ts.SCDiscard()
		e.event(eventKind)
		ctx.Result = svm.IntV(v)
		return nil
	default: // functional replay: direct log read, different cost model
		if e.nextValue >= len(e.logValues) {
			return fmt.Errorf("replay log exhausted: program requested more %q values than were recorded", kind)
		}
		rec := e.logValues[e.nextValue]
		e.nextValue++
		e.plat.AddCycles(2000) // synchronous log read
		e.event(eventKind)
		ctx.Result = svm.IntV(rec.Value)
		return nil
	}
}

// nativePrint appends a byte array (or renders an int) to the
// captured stdout. Output is deterministic, so it is not logged.
func (e *engine) nativePrint(ctx *svm.NativeCtx) error {
	if len(ctx.Args) != 1 {
		return fmt.Errorf("sys.print takes one argument")
	}
	switch ctx.Args[0].K {
	case svm.KRef:
		o := ctx.VM.Heap.Get(ctx.Args[0].Ref())
		if o == nil || o.Kind != svm.ObjArrB {
			return fmt.Errorf("sys.print ref argument is not a byte array")
		}
		e.exec.Stdout = append(e.exec.Stdout, o.AB...)
	case svm.KInt:
		e.exec.Stdout = append(e.exec.Stdout, []byte(fmt.Sprintf("%d", ctx.Args[0].I))...)
	case svm.KFloat:
		e.exec.Stdout = append(e.exec.Stdout, []byte(fmt.Sprintf("%g", ctx.Args[0].F))...)
	}
	return nil
}

// nativeFsRead reads a file from stable storage. File contents are
// part of the machine's initial state — identical during play and
// replay — so only the (padded) I/O latency matters, not logging.
func (e *engine) nativeFsRead(ctx *svm.NativeCtx) error {
	if len(ctx.Args) != 1 || ctx.Args[0].K != svm.KRef {
		return fmt.Errorf("fs.read needs one byte-array filename")
	}
	o := ctx.VM.Heap.Get(ctx.Args[0].Ref())
	if o == nil || o.Kind != svm.ObjArrB {
		return fmt.Errorf("fs.read filename is not a byte array")
	}
	content, ok := e.cfg.Files[string(o.AB)]
	if !ok {
		ctx.Result = svm.Null()
		return nil
	}
	e.plat.IORead(int64(len(content)))
	// Stable storage is read-only initial state, shared by every engine
	// that runs on this Config: the array aliases it until the guest
	// first stores into it.
	ctx.Result = svm.RefV(ctx.VM.Heap.AllocSharedBytes(content))
	return nil
}
