package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// FunnelStage is one stage's aggregate in a FunnelReport.
type FunnelStage struct {
	Stage        string  `json:"stage"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"totalSeconds"`
	P50Seconds   float64 `json:"p50Seconds"`
	P99Seconds   float64 `json:"p99Seconds"`
	// CriticalShare is the stage's total wall time as a fraction of
	// the summed root-span wall time (the funnel's critical path).
	CriticalShare float64 `json:"criticalShare"`
}

// FunnelReport aggregates a span dump into the per-stage funnel view
// `tdraudit obs report` prints.
type FunnelReport struct {
	Spans       int           `json:"spans"`
	Traces      int           `json:"traces"` // spans named StageTrace
	Roots       int           `json:"roots"`
	RootSeconds float64       `json:"rootSeconds"`
	Stages      []FunnelStage `json:"stages"`
}

// BuildFunnelReport aggregates span records per stage: counts,
// p50/p99 wall time, and each stage's share of the
// summed root-span wall time. Instant events are excluded. Stage rows
// come out in canonical Stages order, unknown names after.
func BuildFunnelReport(spans []SpanRecord) *FunnelReport {
	rep := &FunnelReport{Spans: len(spans)}
	durs := make(map[string][]float64)
	for _, s := range spans {
		if s.Instant {
			continue
		}
		if s.Name == StageTrace {
			rep.Traces++
		}
		if s.Parent == 0 {
			rep.Roots++
			rep.RootSeconds += s.Dur.Seconds()
		}
		durs[s.Name] = append(durs[s.Name], s.Dur.Seconds())
	}
	for _, name := range stageOrder(durs) {
		ds := durs[name]
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		fs := FunnelStage{
			Stage:        name,
			Count:        len(ds),
			TotalSeconds: total,
			P50Seconds:   percentile(ds, 0.50),
			P99Seconds:   percentile(ds, 0.99),
		}
		if rep.RootSeconds > 0 {
			fs.CriticalShare = total / rep.RootSeconds
		}
		rep.Stages = append(rep.Stages, fs)
	}
	return rep
}

// stageOrder returns the keys of m in canonical Stages order, with
// unknown stage names sorted after.
func stageOrder(m map[string][]float64) []string {
	var out, extra []string
	seen := make(map[string]bool)
	for _, name := range Stages {
		if _, ok := m[name]; ok {
			out = append(out, name)
			seen[name] = true
		}
	}
	for name := range m {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// percentile reads the p-quantile of sorted (ascending) samples via
// the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Format renders the funnel table.
func (r *FunnelReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "funnel: %d spans, %d traces, %d roots, %.3fs critical path\n",
		r.Spans, r.Traces, r.Roots, r.RootSeconds)
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %12s %9s\n",
		"stage", "count", "p50", "p99", "total", "critical")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-14s %8d %12s %12s %12s %8.1f%%\n",
			s.Stage, s.Count,
			fmtSeconds(s.P50Seconds), fmtSeconds(s.P99Seconds), fmtSeconds(s.TotalSeconds),
			s.CriticalShare*100)
	}
	return b.String()
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// ReadSpansNDJSON decodes one SpanRecord per line. A torn final line
// (a crash mid-append before SpanLog repair ran) is tolerated;
// malformed lines anywhere else are an error.
func ReadSpansNDJSON(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			// Only fatal if another line follows — a bad last line is
			// a torn tail.
			pendingErr = fmt.Errorf("obs: bad span record on line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSpanFiles loads span records from path: a single NDJSON file,
// or a trace directory holding rotated spans-*.ndjson generations
// plus the active spans.ndjson, read oldest first.
func ReadSpanFiles(path string) ([]SpanRecord, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		rotated, _ := filepath.Glob(filepath.Join(path, "spans-*.ndjson"))
		sort.Strings(rotated)
		files = rotated
		active := filepath.Join(path, SpanLogName)
		if _, err := os.Stat(active); err == nil {
			files = append(files, active)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("obs: no spans.ndjson or spans-*.ndjson in %s", path)
		}
	}
	var out []SpanRecord
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		recs, err := ReadSpansNDJSON(fh)
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}
