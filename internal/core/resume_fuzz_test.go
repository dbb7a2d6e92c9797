package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"sanity/internal/replaylog"
)

// resumeTraces are the echo recordings FuzzReplayWindowResume damages:
// playCheckpointed's seed 31, benign and with a covert delay on every
// other packet, recorded once per process.
var resumeTraces = sync.OnceValues(func() ([2]*replaylog.Log, error) {
	var logs [2]*replaylog.Log
	for i, hook := range []DelayHook{nil, func(ctx DelayCtx) int64 {
		if ctx.PacketIndex%2 == 1 {
			return 40_000_000
		}
		return 0
	}} {
		cfg := testConfig(31)
		cfg.CheckpointEveryOutputs = 4
		cfg.Hook = hook
		_, log, err := Play(echoProg(), manyInputs(24, 31^0xF00D), cfg)
		if err != nil {
			return logs, err
		}
		logs[i] = log
	}
	return logs, nil
})

// FuzzReplayWindowResume damages the state of the checkpoint a
// windowed audit resumes from — checkpoint 1, under a 2-IPD window
// opening on it — and replays it sequentially (ReplayTDRWindow) and
// in segments (ReplayTDRParallel over the rest of the trace). The
// sender computes a container's checksums, so an audit trusts the
// resume state's framing and nothing else: each run must end in an
// error or an execution, never a panic. The seeds are the offsets at
// which one flipped bit once panicked the interpreter on a thread
// left without frames.
func FuzzReplayWindowResume(f *testing.F) {
	for bit := 0; bit < 8; bit++ {
		f.Add(false, uint32(66_094), byte(1<<bit))
		f.Add(true, uint32(66_310), byte(1<<bit))
	}
	f.Fuzz(func(t *testing.T, covert bool, off uint32, xor byte) {
		logs, err := resumeTraces()
		if err != nil {
			t.Fatal(err)
		}
		log := logs[0]
		if covert {
			log = logs[1]
		}
		if len(log.Checkpoints) < 3 {
			t.Fatalf("recording carries %d checkpoints", len(log.Checkpoints))
		}
		mut := *log
		mut.Checkpoints = append([]replaylog.Checkpoint(nil), log.Checkpoints...)
		resume := &mut.Checkpoints[1]
		resume.State = bytes.Clone(resume.State)
		resume.State[int(off)%len(resume.State)] ^= xor
		from := int(resume.Outputs)
		last := int(mut.Checkpoints[len(mut.Checkpoints)-1].Outputs)
		cfg := testConfig(33)
		cfg.MaxSteps = 20_000_000
		// Errors are expected; returning at all is the property.
		ReplayTDRWindow(echoProg(), &mut, cfg, from, from+2)
		ReplayTDRParallel(echoProg(), &mut, cfg, from, last+2, 4)
	})
}

// TestResumeRefusesStateOffItsCheckpoint is a FuzzReplayWindowResume
// input that hung both replays: the flipped byte is the top byte of
// the state's instruction counter, and the resumed VM's first blocking
// receive modelled idle time up to the next record's instruction
// count from there, firing noise events for ever. The resume now
// refuses a state whose counter is not its checkpoint's.
func TestResumeRefusesStateOffItsCheckpoint(t *testing.T) {
	logs, err := resumeTraces()
	if err != nil {
		t.Fatal(err)
	}
	mut := *logs[1]
	mut.Checkpoints = append([]replaylog.Checkpoint(nil), logs[1].Checkpoints...)
	resume := &mut.Checkpoints[1]
	resume.State = bytes.Clone(resume.State)
	resume.State[65_842%len(resume.State)] ^= 0x92
	from := int(resume.Outputs)
	cfg := testConfig(33)
	cfg.MaxSteps = 20_000_000
	if _, err := ReplayTDRWindow(echoProg(), &mut, cfg, from, from+2); err == nil || !strings.Contains(err.Error(), "its checkpoint at") {
		t.Fatalf("ReplayTDRWindow = %v, want the resume refused", err)
	}
	last := int(mut.Checkpoints[len(mut.Checkpoints)-1].Outputs)
	if _, err := ReplayTDRParallel(echoProg(), &mut, cfg, from, last+2, 4); err == nil {
		t.Fatal("ReplayTDRParallel resumed from the damaged state")
	}
}
