package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"sanity/internal/ingest"
	"sanity/internal/obs"
	"sanity/internal/pipeline"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// verdictLog is the daemon's in-memory verdict history plus a
// broadcast for followers. Appends never block on slow readers: each
// append closes the current update channel and installs a fresh one,
// so every follower wakes, snapshots what it has not yet sent, and
// goes back to waiting — the goroutine-free follow pattern.
type verdictLog struct {
	mu sync.Mutex
	// verdicts[head:] is the retention window, oldest first. Rotated-out
	// entries before head are zeroed so the collector can take them,
	// and compacted away once head reaches the limit: appends stay
	// amortised O(1) and the log never holds more than 2×limit.
	verdicts []pipeline.Verdict
	head     int
	// dropped counts verdicts rotated out of the retention window, so
	// follower offsets stay stable across rotation.
	dropped int
	limit   int
	updated chan struct{}
	closed  bool
}

func newVerdictLog(limit int) *verdictLog {
	return &verdictLog{limit: limit, updated: make(chan struct{})}
}

// append records a verdict and wakes every follower.
func (l *verdictLog) append(v pipeline.Verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if n := len(l.verdicts); n == cap(l.verdicts) {
		// Grow by doubling, up to 2×limit: room for the window plus
		// the rotated-out prefix that compaction reclaims.
		grown := make([]pipeline.Verdict, n, min(max(2*n, 16), 2*l.limit))
		copy(grown, l.verdicts)
		l.verdicts = grown
	}
	l.verdicts = append(l.verdicts, v)
	if len(l.verdicts)-l.head > l.limit {
		l.verdicts[l.head] = pipeline.Verdict{}
		l.head++
		l.dropped++
		if l.head == l.limit {
			n := copy(l.verdicts, l.verdicts[l.head:])
			clear(l.verdicts[n:])
			l.verdicts = l.verdicts[:n]
			l.head = 0
		}
	}
	close(l.updated)
	l.updated = make(chan struct{})
}

// close wakes every follower one last time; snapshots after close
// report done, so /verdicts?follow=1 streams terminate during
// shutdown instead of outliving the daemon.
func (l *verdictLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.updated)
	l.updated = make(chan struct{})
}

// snapshot returns the verdicts at absolute offset from onward, the
// next offset to resume from, a channel that closes on the next
// append, and whether the log has closed. Offsets before the
// retention window are clamped forward.
func (l *verdictLog) snapshot(from int) (vs []pipeline.Verdict, next int, updated <-chan struct{}, done bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.dropped {
		from = l.dropped
	}
	if i := l.head + from - l.dropped; i < len(l.verdicts) {
		vs = append([]pipeline.Verdict(nil), l.verdicts[i:]...)
	}
	return vs, from + len(vs), l.updated, l.closed
}

// find returns the most recent retained verdict for one job ID.
func (l *verdictLog) find(jobID string) (pipeline.Verdict, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.verdicts) - 1; i >= l.head; i-- {
		if l.verdicts[i].JobID == jobID {
			return l.verdicts[i], true
		}
	}
	return pipeline.Verdict{}, false
}

// httpHandler assembles the daemon's HTTP surface.
func (d *Daemon) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /verdicts", d.handleVerdicts)
	mux.HandleFunc("GET /corpora", d.handleCorpora)
	mux.HandleFunc("GET /triage", d.handleTriage)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /logz", d.handleLogz)
	mux.HandleFunc("GET /traces/{id}/timeline", d.handleTimeline)
	return mux
}

// handleHealthz is liveness: the process is up and serving HTTP.
// Always 200 — orchestrators restart on failure to answer, not on
// body content.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readiness evaluates the /readyz checks: the spool store is open,
// the ingest listener is up (when one is configured), the first
// spool sweep has completed, and the daemon is not draining.
func (d *Daemon) readiness() (ok bool, checks map[string]bool) {
	checks = map[string]bool{
		"store":       d.st != nil,
		"ingest":      d.cfg.IngestAddr == "" || d.ing != nil,
		"firstSweep":  d.firstSweep.Load(),
		"notDraining": !d.draining.Load(),
	}
	ok = true
	for _, c := range checks {
		ok = ok && c
	}
	return ok, checks
}

// handleReadyz is readiness for load balancers: 200 once the first
// sweep has reconciled the spool, 503 before that and — critically —
// 503 again the moment Stop begins draining, while the rest of the
// surface still answers, so traffic shifts away before the verdict
// log closes.
func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ok, checks := d.readiness()
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Ready  bool            `json:"ready"`
		Checks map[string]bool `json:"checks"`
	}{ok, checks})
}

// handleLogz serves the newest entries of the in-memory log ring as
// NDJSON (JSON per record regardless of the stderr format), oldest
// first. ?n= bounds the count (default 100).
func (d *Daemon) handleLogz(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("bad n=%q", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, line := range d.logRing.Last(n) {
		w.Write(line)
	}
}

// traceTimeline is one /traces/{id}/timeline response: manifest
// identity and audit state, the verdict when still retained, and the
// assembled span history (ingest PUT, sweep/claim/resolve/select,
// and the per-stage audit spans), start-ordered.
type traceTimeline struct {
	Trace          string            `json:"trace"`
	Shard          string            `json:"shard,omitempty"`
	File           string            `json:"file,omitempty"`
	Role           string            `json:"role,omitempty"`
	State          string            `json:"state"`
	Triage         *triage.Score     `json:"triage,omitempty"`
	Verdict        *pipeline.Verdict `json:"verdict,omitempty"`
	Spans          []obs.SpanRecord  `json:"spans"`
	TruncatedSpans int               `json:"truncatedSpans,omitempty"`
}

// handleTimeline assembles one trace's full life. 404 when the ID is
// neither in the manifest nor in the span index.
func (d *Daemon) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	out := traceTimeline{Trace: id, State: "unknown", Spans: []obs.SpanRecord{}}
	found := false
	for _, e := range d.st.Entries() {
		if e.ID == id {
			out.Shard, out.File, out.Role = e.Shard, e.File, e.Role
			out.State = stateLabel(e.Audit)
			out.Triage = e.Triage
			found = true
			break
		}
	}
	if tl, ok := d.timeline.Timeline(id); ok {
		out.Spans = tl.Spans
		out.TruncatedSpans = tl.Truncated
		found = true
	}
	if v, ok := d.vlog.find(id); ok {
		v.Explain = nil
		out.Verdict = &v
		found = true
	}
	if !found {
		http.Error(w, fmt.Sprintf("unknown trace %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		d.log.Error("encoding timeline failed", "id", id, "err", err)
	}
}

// handleVerdicts streams the verdict log as NDJSON — one verdict per
// line in audit order, the same deterministic encoding tdraudit -json
// emits. With ?follow=1 the response stays open and new verdicts are
// flushed as they land, until the client disconnects or the daemon
// shuts down. With ?explain=1 each line carries the verdict's
// evidence trail (requires the auditor to run with WithExplain);
// without it the explain detail is stripped, keeping the default
// stream's shape stable for existing consumers.
func (d *Daemon) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") == "1"
	explain := r.URL.Query().Get("explain") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	from := 0
	for {
		vs, next, updated, done := d.vlog.snapshot(from)
		for _, v := range vs {
			if !explain {
				v.Explain = nil
			}
			if err := enc.Encode(v); err != nil {
				return
			}
		}
		from = next
		if len(vs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if !follow || done {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

// corpusStatus is one /corpora response.
type corpusStatus struct {
	Dir     string         `json:"dir"`
	Shards  int            `json:"shards"`
	Traces  int            `json:"traces"`
	States  map[string]int `json:"states"`
	Ingest  *ingest.Stats  `json:"ingest,omitempty"`
	Audited uint64         `json:"audited"`
}

// handleCorpora reports the spool's audit-state census as JSON.
func (d *Daemon) handleCorpora(w http.ResponseWriter, r *http.Request) {
	states := d.st.AuditStates()
	labeled := make(map[string]int, len(states))
	total := 0
	for k, n := range states {
		labeled[stateLabel(k)] = n
		total += n
	}
	audited := d.met.audited.Value()
	out := corpusStatus{
		Dir:     d.st.Dir(),
		Shards:  len(d.st.Shards()),
		Traces:  total,
		States:  labeled,
		Audited: audited,
	}
	if d.ing != nil {
		s := d.ing.Stats()
		out.Ingest = &s
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, fmt.Sprintf("encoding status: %v", err), http.StatusInternalServerError)
	}
}

// triageTrace is one test trace's row in the /triage census.
type triageTrace struct {
	ID        string  `json:"id"`
	Shard     string  `json:"shard"`
	State     string  `json:"state"`
	Scored    bool    `json:"scored"`
	Suspicion float64 `json:"suspicion"`
	Band      string  `json:"band"`
}

// triageStatus is the /triage response: the funnel's knobs, a census
// of the scored population, and every test trace in claim-priority
// order (descending suspicion, manifest order on ties — the order an
// idle daemon would audit them in, ignoring aging).
type triageStatus struct {
	Enabled    bool           `json:"enabled"`
	ClaimBatch int            `json:"claimBatch"`
	AgingBoost float64        `json:"agingBoost"`
	Scored     int            `json:"scored"`
	Unscored   int            `json:"unscored"`
	Bands      map[string]int `json:"bands"`
	Traces     []triageTrace  `json:"traces"`
}

// handleTriage reports the triage census as JSON.
func (d *Daemon) handleTriage(w http.ResponseWriter, r *http.Request) {
	out := triageStatus{
		Enabled:    !d.cfg.DisableTriage,
		ClaimBatch: d.cfg.ClaimBatch,
		AgingBoost: d.cfg.AgingBoost,
		Bands:      map[string]int{"low": 0, "neutral": 0, "high": 0},
		Traces:     []triageTrace{},
	}
	for _, e := range d.st.Entries() {
		if e.Role != store.RoleTest {
			continue
		}
		s := e.Suspicion()
		if e.Triage != nil {
			out.Scored++
		} else {
			out.Unscored++
		}
		out.Bands[triage.Band(s)]++
		out.Traces = append(out.Traces, triageTrace{
			ID:        e.ID,
			Shard:     e.Shard,
			State:     stateLabel(e.Audit),
			Scored:    e.Triage != nil,
			Suspicion: s,
			Band:      triage.Band(s),
		})
	}
	sort.SliceStable(out.Traces, func(a, b int) bool {
		return out.Traces[a].Suspicion > out.Traces[b].Suspicion
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, fmt.Sprintf("encoding triage status: %v", err), http.StatusInternalServerError)
	}
}

// handleMetrics renders the shared registry in Prometheus text
// exposition format: daemon counters, the claim-to-verdict latency
// histogram, the per-stage latency/alloc histograms, and the
// scrape-time manifest/ingest families.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := d.met.reg.WritePrometheus(w); err != nil {
		d.log.Error("rendering /metrics failed", "err", err)
	}
}
