package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sanity/internal/audit"
	"sanity/internal/fixtures"
	"sanity/internal/pipeline"
	"sanity/internal/store"
)

// maxDaemonVerdicts caps the verdicts any one daemon of the benchmark
// holds. Past daemon.Config.VerdictRetention (4096) every verdict
// re-copies the retained slice, which tripled round time in sizing;
// that regime gets its own workload once the copy is fixed.
const maxDaemonVerdicts = 3072

// workload is one traffic shape driven through the daemon. Every round
// of a workload does identical work, so a run is repeated samples of
// one deterministic unit.
type workload struct {
	name string
	why  string
	// batch is the verdicts one round produces. With one worker the
	// latencies of a round form one cluster of samples per verdict; a
	// batch of 15 puts p50 and p90 (ranks 7.5 and 13.5) inside a cluster
	// instead of between two, where a percentile flips from run to run.
	batch int
	// epochRounds is how many rounds one daemon (and its spool) lives
	// for before a fresh one replaces it, which bounds the live files.
	epochRounds int
	// warmRounds open the run untimed and belong to set-up. Where timed
	// rounds sample whole epochs, the warm-up daemon is replaced before
	// the first timed round.
	warmRounds int
	// wholeEpochs makes the timed rounds stop only where an epoch ends:
	// set where round time depends on the position within the epoch.
	wholeEpochs bool
	// backlog replaces the ingest socket by a preloaded spool: a round
	// is daemon.New on it through the last verdict.
	backlog bool
	workers int
	window  audit.Window
	record  func(seed uint64) ([]population, error)
}

// population is one shard's recorded material.
type population struct {
	shard store.ShardMeta
	set   *fixtures.Set
}

// sizes scale the corpora; the short sizes exist for the smoke test
// only, every reported number comes from the full ones.
func workloadTable(short bool) []*workload {
	played := fixtures.SetSizes{Training: 6, Benign: 7, Covert: 2, Packets: 120}
	flood := fixtures.SetSizes{Training: 6, Benign: 128, Covert: 32, Packets: 220}
	hetero := fixtures.SetSizes{Training: 6, Benign: 4, Covert: 1, Packets: 120}
	replayEpoch, windowEpoch, floodEpoch := 34, 2, 12
	if short {
		played = fixtures.SetSizes{Training: 4, Benign: 3, Covert: 0, Packets: 48}
		flood = fixtures.SetSizes{Training: 4, Benign: 11, Covert: 4, Packets: 220}
		hetero = fixtures.SetSizes{Training: 4, Benign: 2, Covert: 0, Packets: 48}
		replayEpoch, floodEpoch = 4, 2
	}
	// The echo population is one benign trace short of the nfsd one, so
	// the two-shard batch is odd (15) like the others: with 16 the p50
	// fell between the 8th and the 9th verdict and its spread over ten
	// runs was 39 %.
	heteroEcho := hetero
	heteroEcho.Benign--
	tests := func(s fixtures.SetSizes) int { return s.Benign + 4*s.Covert }
	nfsd := func(rec func(fixtures.SetSizes, uint64) (*fixtures.Set, error), sizes fixtures.SetSizes) func(uint64) ([]population, error) {
		return func(seed uint64) ([]population, error) {
			set, err := rec(sizes, seed)
			if err != nil {
				return nil, err
			}
			return []population{{fixtures.NFSShardMeta(seed + 777), set}}, nil
		}
	}
	return []*workload{
		{
			name:        "replay_full",
			why:         "whole-trace replay of small containers in one long-lived daemon: core, svm and hw are the round, ingest and store are negligible",
			batch:       tests(played),
			epochRounds: replayEpoch,
			warmRounds:  1,
			workers:     1,
			window:      audit.WindowFull(),
			record:      nfsd(fixtures.PlayedSet, played),
		},
		{
			name:        "window_restore",
			why:         "checkpointed 7 MB containers audited over a trailing window: admission decode, store load, restore and a short replay share the round; long replay is bypassed",
			batch:       tests(played),
			epochRounds: windowEpoch,
			warmRounds:  windowEpoch,
			wholeEpochs: true,
			workers:     1,
			window:      audit.WindowTrailing(12),
			record: nfsd(func(s fixtures.SetSizes, seed uint64) (*fixtures.Set, error) {
				return fixtures.PlayedSetCheckpointed(s, fixtures.DefaultCheckpointEvery, seed)
			}, played),
		},
		{
			name:        "stat_flood",
			why:         "hundreds of IPD-only traces per round, statistical verdicts only: ingest protocol, store admission and manifest, triage and sweep bookkeeping; core, svm and hw are bypassed",
			batch:       tests(flood),
			epochRounds: floodEpoch,
			warmRounds:  2,
			wholeEpochs: true,
			workers:     1,
			window:      audit.WindowFull(),
			record:      nfsd(fixtures.SyntheticSet, flood),
		},
		{
			name:        "backlog_drain",
			why:         "a preloaded two-shard spool drained by a fresh two-worker daemon each round: restart path, two machine models, per-shard chunks, ordered collector; ingest socket and triage are bypassed",
			batch:       tests(hetero) + tests(heteroEcho),
			epochRounds: 1,
			warmRounds:  2,
			backlog:     true,
			workers:     2,
			window:      audit.WindowFull(),
			record: func(seed uint64) ([]population, error) {
				nfs, err := fixtures.PlayedSet(hetero, seed)
				if err != nil {
					return nil, err
				}
				echo, err := fixtures.EchoSet(heteroEcho, seed+0x51AB)
				if err != nil {
					return nil, err
				}
				return []population{
					{fixtures.NFSShardMeta(seed + 777), nfs},
					{fixtures.EchoShardMeta(seed + 778), echo},
				}, nil
			},
		},
	}
}

// check rejects a table entry that would break a noise rule.
func (w *workload) check() error {
	if n := w.epochRounds * w.batch; n > maxDaemonVerdicts {
		return fmt.Errorf("bench: workload %s would hold %d verdicts in one daemon, over the %d cap", w.name, n, maxDaemonVerdicts)
	}
	if !w.backlog && w.warmRounds > w.epochRounds {
		return fmt.Errorf("bench: workload %s warms up for %d rounds but an epoch has %d", w.name, w.warmRounds, w.epochRounds)
	}
	return nil
}

// auditor builds the auditor both the daemon and the reference audit
// run with, so the two can only differ through the daemon's own path.
func (w *workload) auditor() (*audit.Auditor, error) {
	return audit.New(
		audit.WithRegistry(fixtures.KnownGood),
		audit.WithWorkers(w.workers),
		audit.WithWindow(w.window),
	)
}

// staged is a workload's material on tmpfs, written once in set-up and
// reused by every round.
type staged struct {
	// ref holds the training traces plus one round's test traces: the
	// reference audit and the layer pass read it.
	ref string
	// prime holds the shards and their training traces only. A socket
	// epoch pushes it once, untimed, so every timed round uploads test
	// traces and nothing else.
	prime *store.Store
	// rounds are the test-only sources of one epoch's rounds, their
	// trace IDs prefixed by the round so one daemon can admit them all.
	// A backlog workload has none: every round links ref as its spool.
	rounds []*store.Store
	// bytes is what staging left on tmpfs; roundBytes what one round
	// adds to a spool.
	bytes, roundBytes int64
}

// roundID is the ID a test trace is staged under for round r.
func roundID(r int, id string) string { return fmt.Sprintf("r%02d-%s", r, id) }

// stage writes a workload's populations under root.
func stage(w *workload, pops []population, root string) (*staged, error) {
	src := filepath.Join(root, "src")
	s := &staged{ref: filepath.Join(src, "ref")}
	if w.backlog {
		st, err := store.Create(s.ref)
		if err != nil {
			return nil, err
		}
		nfs, echo := pops[0], pops[1]
		if err := fixtures.ExportHeterogeneous(st, nfs.set, echo.set, nfs.shard.Seed); err != nil {
			return nil, err
		}
	}
	export := func(dir string, part func(population) *fixtures.Set) (*store.Store, error) {
		st, err := store.Create(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pops {
			if err := fixtures.ExportSet(st, part(p), p.shard); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	var err error
	s.prime, err = export(filepath.Join(src, "prime"), func(p population) *fixtures.Set {
		return &fixtures.Set{Training: p.set.Training}
	})
	if err != nil {
		return nil, err
	}
	if !w.backlog {
		for r := 0; r < w.epochRounds; r++ {
			st, err := export(filepath.Join(src, fmt.Sprintf("round-%02d", r)), func(p population) *fixtures.Set {
				renamed := append([]fixtures.LabeledTrace(nil), p.set.Traces...)
				for i := range renamed {
					renamed[i].ID = roundID(r, renamed[i].ID)
				}
				return &fixtures.Set{Traces: renamed}
			})
			if err != nil {
				return nil, err
			}
			s.rounds = append(s.rounds, st)
		}
		if err := linkStore(s.ref, s.prime.Dir(), s.rounds[0].Dir()); err != nil {
			return nil, err
		}
	}
	if s.bytes, err = liveBytes(src); err != nil {
		return nil, err
	}
	primeBytes, err := liveBytes(s.prime.Dir())
	if err != nil {
		return nil, err
	}
	refBytes, err := liveBytes(s.ref)
	if err != nil {
		return nil, err
	}
	s.roundBytes = refBytes - primeBytes
	return s, nil
}

// reference audits the staged ref store in-process, with the daemon's
// own auditor options, and returns per staged round the verdict lines
// the daemon must stream for it.
func reference(w *workload, s *staged) ([]map[verdictKey][]byte, error) {
	st, err := store.Open(s.ref)
	if err != nil {
		return nil, err
	}
	a, err := w.auditor()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	plan, err := a.Plan(ctx, audit.FromStore(st))
	if err != nil {
		return nil, err
	}
	res, err := plan.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	if len(res.Verdicts) != w.batch {
		return nil, fmt.Errorf("bench: reference audit of %s gave %d verdicts, want %d", w.name, len(res.Verdicts), w.batch)
	}
	for _, v := range res.Verdicts {
		// A workload is chosen so that no operation fails; a corpus the
		// detectors cannot score is a broken workload, not a result.
		if v.Err != "" {
			return nil, fmt.Errorf("bench: reference audit of %s: verdict %s carries err %q", w.name, v.JobID, v.Err)
		}
	}
	rounds := max(len(s.rounds), 1)
	out := make([]map[verdictKey][]byte, rounds)
	for r := range out {
		out[r] = make(map[verdictKey][]byte, len(res.Verdicts))
		for _, v := range res.Verdicts {
			id := v.JobID
			if !w.backlog {
				id = roundID(r, strings.TrimPrefix(id, roundID(0, "")))
			}
			line, err := expectedLine(v, id)
			if err != nil {
				return nil, err
			}
			out[r][verdictKey{v.Shard, id}] = line
		}
	}
	return out, nil
}

// inMemoryBatch is the populations as the batch pipeline.Run takes.
func inMemoryBatch(pops []population) (*pipeline.Batch, error) {
	b := &pipeline.Batch{}
	for _, p := range pops {
		prog, cfg, err := fixtures.KnownGood(p.shard.Program, p.shard.Seed)
		if err != nil {
			return nil, err
		}
		b.AddShard(p.set.ShardWith(p.shard.Key, prog, cfg))
		for _, lt := range p.set.Traces {
			b.Append(pipeline.Job{ID: lt.ID, Shard: p.shard.Key, Label: lt.Label, Trace: lt.Trace})
		}
	}
	return b, nil
}

// removeAll deletes a benchmark directory, keeping the first error of
// a sequence of clean-ups.
func removeAll(dir string, err *error) {
	if rerr := os.RemoveAll(dir); rerr != nil && *err == nil {
		*err = rerr
	}
}
