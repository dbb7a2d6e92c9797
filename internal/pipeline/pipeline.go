package pipeline

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// chunkJobs is the dispatch unit: a worker takes this many
// consecutive jobs of one shard from the queue at a time. It stays 8
// because dispatching single jobs, though faster, costs memory. On
// bench/'s backlog_drain workload (two shards on two machine types,
// two workers; 8 alternated runs each on a 2-vCPU host) one job per
// dispatch drained 55 traces/s against 32 and cut median latency from
// 246 to 178 ms, but raised peak RSS from 26.0 to 31.6 MB (+22 %),
// likely one more retained engine kit per machine type once jobs of
// both shards interleave on every worker.
const chunkJobs = 8

// queueChunks is the depth of the chunk queue between the scheduler
// and the workers, per worker: when every worker is busy and the
// queue is full, the scheduler blocks instead of buffering the whole
// batch.
const queueChunks = 2

// runaheadJobs is how far past the first unemitted verdict a run of
// the given worker count may dispatch: the queue's chunks plus one
// chunk in every worker's hands.
func runaheadJobs(workers int) int {
	return (queueChunks*workers + workers) * chunkJobs
}

// Config tunes one pipeline.
type Config struct {
	// Workers is the audit worker-pool size. Zero or negative selects
	// GOMAXPROCS.
	Workers int
	// TDRThreshold is the suspicion threshold on the TDR detector's
	// maximum relative IPD deviation. The paper's replays land within
	// 2% of the recorded timing (§6.4), so anything above that is
	// delay the software cannot explain. Zero selects 0.05.
	TDRThreshold float64
	// StatThreshold is the fallback threshold on the CCE detector's
	// z-distance for traces that carry no replay log. Zero selects 3.
	StatThreshold float64
	// WindowIPDs, when positive, switches the TDR path to windowed
	// replay: each job audits only its trailing WindowIPDs inter-packet
	// delays, resuming from the log's last checkpoint at or before the
	// window. Logs without
	// checkpoints fall back to full replay transparently. The windowed
	// score is bit-identical to scoring the same window out of a full
	// replay; it differs from the whole-trace score only in coverage.
	// Zero audits the whole trace.
	WindowIPDs int

	// Explain attaches the evidence trail (Verdict.Explain) to every
	// verdict: the audited window and the policy that chose it, and the
	// TDR deviation summary. It never changes scores, decisions, or
	// the canonical encoding.
	Explain bool

	// fullReplay scores every TDR audit from a full replay from
	// virtual time zero: the reference the differential tests pin
	// windowed replay against.
	fullReplay bool
}

// withDefaults normalizes the configuration.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TDRThreshold <= 0 {
		c.TDRThreshold = 0.05
	}
	if c.StatThreshold <= 0 {
		c.StatThreshold = 3
	}
	return c
}

// Pipeline is a reusable audit pipeline configuration. One Pipeline
// may run many batches, sequentially or concurrently.
type Pipeline struct {
	cfg Config
}

// New builds a pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// Workers reports the effective worker-pool size.
func (p *Pipeline) Workers() int { return p.cfg.Workers }

// indexedJob carries a job's submission index through the pool.
type indexedJob struct {
	idx int
	job Job
}

// chunk is the dispatch unit: consecutive same-shard jobs.
type chunk struct {
	shard string
	jobs  []indexedJob
}

// Stream is a running audit. Verdicts delivers every verdict in
// submission order as soon as it is available; Wait blocks until the
// run completes and returns the aggregate results. Wait drains any
// verdicts the caller has not consumed, so fire-and-forget callers
// can ignore the channel entirely.
type Stream struct {
	Verdicts <-chan Verdict

	done    chan struct{}
	results *Results
	err     error
}

// Wait drains the verdict stream and returns the completed results.
func (s *Stream) Wait() *Results {
	for range s.Verdicts {
	}
	<-s.done
	return s.results
}

// Err reports how the run ended: nil for a complete stream, a
// CanceledError (matching ErrCanceled and the context cause via
// errors.Is) when the run's context was canceled mid-batch. Valid
// only after Wait returns or the Verdicts channel is closed.
func (s *Stream) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Run audits a batch to completion and returns the results.
func (p *Pipeline) Run(b *Batch) (*Results, error) {
	s, err := p.GoContext(context.Background(), b)
	if err != nil {
		return nil, err
	}
	return s.Wait(), nil
}

// GoContext starts auditing a batch under ctx and returns the verdict
// stream. Shard training happens before GoContext returns, so a
// training error (too few benign traces, a bad binary) fails fast
// instead of surfacing mid-stream. Cancellation is honored at every
// layer: the scheduler stops dispatching chunks, each worker abandons
// its queue (finishing at most the job it is on, so a verdict is never
// half-built), and the collector closes the stream after emitting the
// ordered prefix of verdicts that completed. The stream then reports
// a CanceledError through Err. Verdicts already emitted are exactly
// what a complete run would have emitted for those jobs.
func (p *Pipeline) GoContext(ctx context.Context, b *Batch) (*Stream, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	auditors, err := p.train(ctx, b)
	if err != nil {
		return nil, err
	}
	chunks := makeChunks(b, chunkJobs)

	// Bounded chunk queue: the scheduler blocks when workers fall
	// behind, instead of buffering everything. The verdict channels
	// each hold as many verdicts as the queue holds jobs.
	depth := queueChunks * p.cfg.Workers
	in := make(chan chunk, depth)
	out := make(chan Verdict, depth*chunkJobs)
	// The reorder buffer must stay bounded too: one slow job would
	// otherwise let every later verdict pile up waiting for it. The
	// collector reports its emission watermark and the scheduler
	// refuses to dispatch a chunk that starts more than runahead jobs
	// past it, so pending verdicts never exceed runahead plus the
	// in-flight work. Deadlock-free: every chunk below the dispatch
	// point is already dispatched, so the watermark job is always
	// either done or on a worker.
	runahead := runaheadJobs(p.cfg.Workers)
	emitted := make(chan int, len(b.Jobs)+1)
	go func() {
		// The scheduler owns closing `in`: on cancellation it stops
		// feeding and closes, so workers always see end-of-queue.
		defer close(in)
		watermark := 0
		for _, c := range chunks {
			for c.jobs[0].idx >= watermark+runahead {
				select {
				case watermark = <-emitted:
				case <-ctx.Done():
					return
				}
			}
			select {
			case in <- c:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range in {
				a := auditors[c.shard]
				for _, ij := range c.jobs {
					// Checked per job, not per chunk: a canceled run
					// stops paying for replays as soon as the job in
					// flight finishes.
					if ctx.Err() != nil {
						return
					}
					t0 := time.Now()
					v := a.audit(ctx, ij.job, ij.idx)
					v.latencyNs = time.Since(t0).Nanoseconds()
					out <- v
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	public := make(chan Verdict, depth*chunkJobs)
	s := &Stream{Verdicts: public, done: make(chan struct{}), results: &Results{}}
	go func() {
		// Reorder buffer: workers finish in any interleaving; verdicts
		// leave in submission order. On cancellation, verdicts past the
		// first gap are dropped with their jobs — the emitted stream is
		// always a prefix.
		pending := make(map[int]Verdict)
		next := 0
		for v := range out {
			pending[v.Index] = v
			for {
				nv, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				s.results.add(nv)
				public <- nv
				next++
			}
			// Non-blocking by construction: capacity covers every job.
			emitted <- next
		}
		if next < len(b.Jobs) {
			if cause := context.Cause(ctx); cause != nil {
				s.err = &CanceledError{Emitted: next, Cause: cause}
			}
		}
		s.results.finish(time.Since(start).Nanoseconds(), p.cfg.Workers)
		// done closes before the verdict channel: a consumer that
		// drains Verdicts may call Err immediately after, and must
		// never observe a truncated stream as a nil error.
		close(s.done)
		close(public)
	}()
	return s, nil
}

// train builds every shard's auditor, in parallel across shards (CCE
// training and binary setup dominate batch startup for small
// batches). Shards are processed in sorted-key order so error
// reporting is deterministic. A canceled context stops scheduling
// further shards and fails the run before any verdict streams.
func (p *Pipeline) train(ctx context.Context, b *Batch) (map[string]*auditor, error) {
	keys := make([]string, 0, len(b.Shards))
	for k := range b.Shards {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	auditors := make([]*auditor, len(keys))
	errs := make([]error, len(keys))
	sem := make(chan struct{}, p.cfg.Workers)
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = &CanceledError{Cause: context.Cause(ctx)}
				return
			}
			auditors[i], errs[i] = newAuditor(s, p.cfg)
		}(i, b.Shards[k])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*auditor, len(keys))
	for i, k := range keys {
		out[k] = auditors[i]
	}
	return out, nil
}

// makeChunks groups each shard's jobs (in submission order) into
// chunks of at most size jobs, then orders chunks by their first
// job's index so a single worker processes the batch in submission
// order exactly.
func makeChunks(b *Batch, size int) []chunk {
	// Guard the edges: an empty batch yields no chunks (never an empty
	// chunk — dispatch assumes chunk.jobs is non-empty), and a
	// non-positive size degrades to one job per chunk instead of
	// looping forever.
	if len(b.Jobs) == 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	perShard := make(map[string][]indexedJob)
	for i, j := range b.Jobs {
		perShard[j.Shard] = append(perShard[j.Shard], indexedJob{idx: i, job: j})
	}
	var chunks []chunk
	for shard, jobs := range perShard {
		for start := 0; start < len(jobs); start += size {
			end := start + size
			if end > len(jobs) {
				end = len(jobs)
			}
			chunks = append(chunks, chunk{shard: shard, jobs: jobs[start:end]})
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].jobs[0].idx < chunks[j].jobs[0].idx })
	return chunks
}
