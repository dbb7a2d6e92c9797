package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sanity/internal/daemon"
	"sanity/internal/ingest"
	"sanity/internal/store"
)

// roundTimeout bounds the wait for one round's verdicts; a daemon that
// loses a verdict fails the run instead of hanging it.
const roundTimeout = 60 * time.Second

// verdictLine is one NDJSON line of /verdicts?follow=1 and when the
// follower read it.
type verdictLine struct {
	at  time.Time
	raw []byte
}

// env is one set-up workload: staged material, reference verdicts and
// the live daemon of the current epoch. One goroutine drives it (the
// load), one more follows the verdict stream.
type env struct {
	w        *workload
	root     string
	pops     []population
	stg      *staged
	expected []map[verdictKey][]byte
	client   *http.Client

	d          *daemon.Daemon
	spool      string
	epochRound int
	lines      <-chan verdictLine
	stopFollow context.CancelFunc
	followDone <-chan error

	attempted int
	failures  []string
	peakBytes int64
}

// sample is what one timed round measured.
type sample struct {
	wall      time.Duration
	latencies []time.Duration
	cpu       time.Duration
	alloc     uint64
}

// usage is the process's CPU time and allocated bytes so far.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func takeUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// setUp records the workload's corpus from the seed, stages it, audits
// the reference, boots the first daemon and runs the warm-up rounds:
// everything that precedes the first timed round.
func setUp(w *workload, seed uint64, root string) (e *env, err error) {
	if err := w.check(); err != nil {
		return nil, err
	}
	e = &env{w: w, root: root, client: &http.Client{}}
	defer func() {
		if err != nil {
			e.tearDown()
		}
	}()
	if e.pops, err = w.record(seed); err != nil {
		return e, fmt.Errorf("bench: recording %s: %w", w.name, err)
	}
	if e.stg, err = stage(w, e.pops, root); err != nil {
		return e, fmt.Errorf("bench: staging %s: %w", w.name, err)
	}
	if e.expected, err = reference(w, e.stg); err != nil {
		return e, err
	}
	for i := 0; i < w.warmRounds; i++ {
		if _, err = e.round(); err != nil {
			return e, err
		}
	}
	if w.wholeEpochs {
		// Timed rounds sample whole epochs: the first one starts on a
		// fresh daemon, however short the warm-up was.
		e.epochRound = w.epochRounds
	}
	return e, nil
}

// tearDown stops whatever is running and removes the staged material.
func (e *env) tearDown() error {
	err := e.endEpoch()
	e.client.CloseIdleConnections()
	removeAll(filepath.Join(e.root, "src"), &err)
	return err
}

// timedRounds runs rounds until budget has elapsed, then to the end of
// the epoch where the workload asks for whole epochs. Epoch turnover
// happens between rounds and is in no sample.
func (e *env) timedRounds(budget time.Duration) ([]sample, error) {
	var out []sample
	start := time.Now()
	for {
		boundary := e.epochRound == e.w.epochRounds
		if len(out) > 0 && time.Since(start) >= budget && (boundary || !e.w.wholeEpochs) {
			return out, nil
		}
		s, err := e.round()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// daemonConfig is the daemon under test: no span export, log records
// rendered and discarded, and a poll interval no run reaches, so only an
// ingest DONE (or start-up) ever starts a sweep. Triage is on where
// traces arrive over the socket. It is off on a backlog workload: there
// the sweep's two shards run in parallel and verdicts leave in claim
// order, so under suspicion-ordered claims the median latency follows
// how the seed happens to interleave the shards (249-512 ms over six
// seeds); arrival order interleaves them the same way for every seed.
func (e *env) daemonConfig(dir string) (daemon.Config, error) {
	a, err := e.w.auditor()
	if err != nil {
		return daemon.Config{}, err
	}
	cfg := daemon.Config{
		Dir:           dir,
		Auditor:       a,
		HTTPAddr:      "127.0.0.1:0",
		Poll:          time.Hour,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		DisableTriage: e.w.backlog,
	}
	if !e.w.backlog {
		cfg.IngestAddr = "127.0.0.1:0"
	}
	return cfg, nil
}

// boot starts a daemon on dir and a follower on its verdict stream.
// With ready set it first waits for the daemon's first sweep, as a
// client of a freshly started service would; a backlog round does not,
// because there the first sweep is the round.
func (e *env) boot(dir string, ready bool) error {
	cfg, err := e.daemonConfig(dir)
	if err != nil {
		return err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	e.d, e.spool = d, dir
	if ready {
		// Before the follower, not beside it: two requests racing on a
		// fresh client can leave a dialed-but-unused connection behind,
		// and http.Server.Shutdown waits five seconds for such a one.
		if err := waitReady(e.client, e.base()); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	// One round's worth of buffer: the follower timestamps each line as
	// it reads it and never waits for the load goroutine within a round.
	lines := make(chan verdictLine, e.w.batch)
	done := make(chan error, 1)
	go func() { done <- follow(ctx, e.client, e.base(), lines) }()
	e.lines, e.stopFollow, e.followDone = lines, cancel, done
	return nil
}

func (e *env) base() string { return "http://" + e.d.HTTPAddr().String() }

// spoolDir is where the current daemon's spool lives.
func (e *env) spoolDir() string { return filepath.Join(e.root, "spool") }

// follow reads /verdicts?follow=1 line by line until the daemon closes
// the stream or ctx ends, and closes out when it returns.
func follow(ctx context.Context, client *http.Client, base string, out chan<- verdictLine) error {
	defer close(out)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/verdicts?follow=1", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET /verdicts: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 && err == nil {
			select {
			case out <- verdictLine{at: time.Now(), raw: raw}:
			case <-ctx.Done():
				return nil
			}
		}
		if err == io.EOF || ctx.Err() != nil {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// waitReady polls a daemon's /readyz until its first sweep is done.
func waitReady(client *http.Client, base string) error {
	deadline := time.Now().Add(roundTimeout)
	for {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: daemon not ready after %s", roundTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// beginEpoch boots a fresh daemon on an empty spool, waits until it is
// ready and pushes the training traces.
func (e *env) beginEpoch() error {
	if err := checkEpoch(e.stg.bytes, e.stg.roundBytes, e.w.epochRounds); err != nil {
		return err
	}
	if err := e.boot(e.spoolDir(), true); err != nil {
		return err
	}
	e.epochRound = 0
	return e.push(e.stg.prime)
}

// push uploads one staged store in one session. Per-trace rejections
// become failures (their verdicts will be missing too); a protocol
// error aborts the run.
func (e *env) push(src *store.Store) error {
	res, err := ingest.Push(e.d.IngestAddr().String(), src)
	if err != nil {
		return fmt.Errorf("bench: pushing %s: %w", src.Dir(), err)
	}
	for _, r := range res.Rejected {
		e.failures = append(e.failures, "rejected PUT: "+r)
	}
	return nil
}

// stopDaemon stops the current daemon and waits for its follower. Idle
// client connections go first: http.Server.Shutdown waits five seconds
// for a connection that was dialed but never carried a request, and the
// daemon's own shutdown deadline is no longer than that.
func (e *env) stopDaemon() error {
	e.client.CloseIdleConnections()
	err := e.d.Stop()
	e.stopFollow()
	if ferr := <-e.followDone; err == nil {
		err = ferr
	}
	e.d = nil
	return err
}

// endEpoch stops the current daemon if one runs, checks the footprint
// where it is largest and removes the spool.
func (e *env) endEpoch() (err error) {
	if e.d != nil {
		err = e.stopDaemon()
	}
	if e.spool == "" {
		return err
	}
	live, lerr := liveBytes(e.root)
	if err == nil {
		err = lerr
	}
	e.peakBytes = max(e.peakBytes, live)
	if err == nil && live > footprintLimit {
		err = fmt.Errorf("bench: %d live bytes at the end of an epoch, over the %d limit", live, int64(footprintLimit))
	}
	removeAll(e.spool, &err)
	e.spool = ""
	return err
}

// round runs one closed-loop round and checks its verdicts. On a
// socket workload it is one ingest.Push session of one staged batch
// (its DONE wakes the sweep), timed from the dial to the last verdict
// line read. On a backlog workload it is daemon.New on a freshly
// linked preloaded spool, timed through the last verdict; the daemon's
// Stop follows outside the timed window.
func (e *env) round() (s sample, err error) {
	var expected map[verdictKey][]byte
	if e.w.backlog {
		if err := checkEpoch(e.stg.bytes, e.stg.roundBytes, 1); err != nil {
			return s, err
		}
		if err := linkStore(e.spoolDir(), e.stg.ref); err != nil {
			return s, err
		}
		expected = e.expected[0]
		defer func() {
			if eerr := e.endEpoch(); err == nil {
				err = eerr
			}
		}()
	} else {
		if e.d == nil || e.epochRound == e.w.epochRounds {
			if err := e.endEpoch(); err != nil {
				return s, err
			}
			if err := e.beginEpoch(); err != nil {
				return s, err
			}
		}
		expected = e.expected[e.epochRound]
	}

	before := takeUsage()
	t0 := time.Now()
	if e.w.backlog {
		err = e.boot(e.spoolDir(), false)
	} else {
		err = e.push(e.stg.rounds[e.epochRound])
		e.epochRound++
	}
	if err != nil {
		return s, err
	}
	raws := make([][]byte, 0, e.w.batch)
	s.latencies = make([]time.Duration, 0, e.w.batch)
	timeout := time.NewTimer(roundTimeout)
	defer timeout.Stop()
collect:
	for len(raws) < e.w.batch {
		select {
		case l, ok := <-e.lines:
			if !ok {
				break collect
			}
			raws = append(raws, l.raw)
			s.latencies = append(s.latencies, l.at.Sub(t0))
		case <-timeout.C:
			break collect
		}
	}
	after := takeUsage()
	if n := len(s.latencies); n > 0 {
		s.wall = s.latencies[n-1]
	}
	s.cpu, s.alloc = after.cpu-before.cpu, after.alloc-before.alloc

	check := newRoundCheck(expected)
	for _, raw := range raws {
		check.line(raw)
	}
	e.attempted += e.w.batch
	e.failures = append(e.failures, check.finish()...)
	if len(raws) < e.w.batch {
		return s, fmt.Errorf("bench: round produced %d of %d verdicts within %s", len(raws), e.w.batch, roundTimeout)
	}
	return s, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("bench: parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}
