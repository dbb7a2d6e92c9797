package daemon

import (
	"time"

	"sanity/internal/ingest"
	"sanity/internal/obs"
	"sanity/internal/pipeline"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// latencyBuckets spans claim-to-verdict wall times from fast windowed
// audits to multi-minute full-replay sweeps.
var latencyBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// suspicionBuckets decile-buckets the [0,1] ensemble suspicion, so a
// scrape shows the shape of the scored population around the neutral
// 0.5 midpoint.
var suspicionBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// metrics is the daemon's lifetime instrumentation over the shared
// obs registry: the daemon-level counters, the claim-to-verdict
// latency histogram, and the per-stage latency/alloc histograms the
// funnel's spans feed. GET /metrics renders the registry; the same
// registry backs scrape-time func metrics for state owned elsewhere
// (manifest census, ingest counters).
type metrics struct {
	reg    *obs.Registry
	stages *obs.StageMetrics

	audited  *obs.Counter
	verdicts *obs.CounterVec
	corruptC *obs.Counter
	planFail *obs.Counter
	latency  *obs.Histogram

	triageScored    *obs.Counter
	triageSuspicion *obs.Histogram
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:      reg,
		stages:   obs.NewStageMetrics(reg),
		audited:  reg.Counter("tdrauditd_traces_audited_total", "Traces that produced a verdict."),
		verdicts: reg.CounterVec("tdrauditd_verdicts_total", "Verdicts by outcome.", "outcome"),
		corruptC: reg.Counter("tdrauditd_traces_corrupt_total", "Claimed traces failed before auditing (unreadable container)."),
		planFail: reg.Counter("tdrauditd_plan_failures_total", "Sweeps whose audit plan could not be built."),
		latency:  reg.Histogram("tdrauditd_audit_latency_seconds", "Claim-to-verdict latency.", latencyBuckets),
		triageScored: reg.Counter("sanity_triage_scored_total",
			"Test traces scored by the ingest triage ensemble."),
		triageSuspicion: reg.Histogram("sanity_triage_suspicion",
			"Ensemble suspicion of triage-scored traces.", suspicionBuckets),
	}
	// Pre-create every outcome so a scrape always shows all three
	// series, zeros included.
	m.verdicts.With("suspicious")
	m.verdicts.With("clean")
	m.verdicts.With("error")
	return m
}

// observe records one verdict and its claim→verdict latency.
func (m *metrics) observe(v pipeline.Verdict, lat time.Duration) {
	m.audited.Inc()
	switch {
	case v.Err != "":
		m.verdicts.With("error").Inc()
	case v.Suspicious:
		m.verdicts.With("suspicious").Inc()
	default:
		m.verdicts.With("clean").Inc()
	}
	m.latency.Observe(lat.Seconds())
}

// corrupt records a claimed trace that failed before auditing.
func (m *metrics) corrupt() { m.corruptC.Inc() }

// planFailure records a sweep whose plan could not be built.
func (m *metrics) planFailure() { m.planFail.Inc() }

// stateLabel maps the store's audit-state constants ("" = pending)
// onto Prometheus label values.
func stateLabel(state string) string {
	if state == store.AuditPending {
		return "pending"
	}
	return state
}

// registerFuncMetrics adds the scrape-time families whose truth lives
// outside the metrics struct: the manifest's audit-state census and
// the embedded ingest server's counters. Closures read the daemon at
// scrape time (d.ing is nil until Start — and forever, with no ingest
// listener — so they report zero until it exists).
func (d *Daemon) registerFuncMetrics() {
	reg := d.met.reg
	reg.GaugeFunc("tdrauditd_queue_depth", "Test traces awaiting a verdict (pending + claimed).", func() float64 {
		states := d.st.AuditStates()
		return float64(states[store.AuditPending] + states[store.AuditClaimed])
	})
	auditStates := []string{store.AuditPending, store.AuditClaimed, store.AuditAudited, store.AuditFailed}
	reg.Func("tdrauditd_store_traces", "Admitted test traces by audit state.", "gauge", []string{"state"}, func() []obs.Sample {
		states := d.st.AuditStates()
		out := make([]obs.Sample, 0, len(auditStates))
		for _, st := range auditStates {
			out = append(out, obs.Sample{LabelValues: []string{stateLabel(st)}, Value: float64(states[st])})
		}
		return out
	})
	triageBands := []string{"low", "neutral", "high"}
	reg.Func("sanity_triage_backlog", "Pending test traces awaiting claim, by suspicion band.",
		"gauge", []string{"band"}, func() []obs.Sample {
			counts := make(map[string]int, len(triageBands))
			for _, e := range d.st.PendingTest() {
				counts[triage.Band(e.Suspicion())]++
			}
			out := make([]obs.Sample, 0, len(triageBands))
			for _, b := range triageBands {
				out = append(out, obs.Sample{LabelValues: []string{b}, Value: float64(counts[b])})
			}
			return out
		})
	ingCounter := func(name, help string, get func(ingest.Stats) uint64) {
		reg.CounterFunc(name, help, func() float64 {
			if d.ing == nil {
				return 0
			}
			return float64(get(d.ing.Stats()))
		})
	}
	ingCounter("tdrauditd_ingest_connections_total", "Ingest connections accepted.",
		func(s ingest.Stats) uint64 { return s.Conns })
	ingCounter("tdrauditd_ingest_bytes_total", "Payload bytes accepted over ingest.",
		func(s ingest.Stats) uint64 { return s.Bytes })
	ingCounter("tdrauditd_ingest_quota_rejections_total", "Ingest sessions or traces refused over quota.",
		func(s ingest.Stats) uint64 { return s.QuotaRejections })
	ingCounter("tdrauditd_ingest_idle_timeouts_total", "Ingest connections cut for lack of progress.",
		func(s ingest.Stats) uint64 { return s.IdleTimeouts })
}
