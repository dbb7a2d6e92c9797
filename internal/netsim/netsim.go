// Package netsim models the wide-area network between the NFS client
// and server in the paper's covert-channel experiments (§6.6): the
// two endpoints sat at different U.S. East Coast universities with an
// RTT of ~10 ms and measured one-way jitter percentiles of 0.18 ms
// (p50), 0.80 ms (p90), and 3.91 ms (p99). The jitter model here is
// an inverse-CDF interpolation calibrated to exactly those points, so
// the §6.9 noise-vs-jitter comparison carries over.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"sanity/internal/core"
	"sanity/internal/hw"
)

// Ms is one millisecond in picoseconds, the time unit of the engine.
const Ms = int64(1_000_000_000)

// JitterModel samples one-way network jitter via piecewise log-linear
// inverse-CDF interpolation through calibrated percentile points.
type JitterModel struct {
	// ps and qs are the calibration points: quantile -> jitter (ps).
	qs []float64
	ps []float64
}

// PaperJitter returns the jitter model calibrated to the paper's
// measured percentiles between two well-provisioned universities.
func PaperJitter() *JitterModel {
	return NewJitterModel(map[float64]float64{
		0.50:  0.18,
		0.90:  0.80,
		0.99:  3.91,
		0.999: 8.0,
	})
}

// BroadbandJitter models a residential broadband path, whose median
// jitter the paper cites as ~2.5 ms (Dischinger et al.).
func BroadbandJitter() *JitterModel {
	return NewJitterModel(map[float64]float64{
		0.50:  2.5,
		0.90:  7.0,
		0.99:  20.0,
		0.999: 45.0,
	})
}

// NewJitterModel builds a model from quantile -> jitter-in-ms points.
// The (0, 0) anchor is implicit and a final point is extrapolated.
func NewJitterModel(points map[float64]float64) *JitterModel {
	m := &JitterModel{}
	qs := make([]float64, 0, len(points))
	for q := range points {
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	m.qs = append(m.qs, 0)
	m.ps = append(m.ps, 0)
	for _, q := range qs {
		m.qs = append(m.qs, q)
		m.ps = append(m.ps, points[q]*float64(Ms))
	}
	// Tail anchor: double the last jitter at quantile 1.
	m.qs = append(m.qs, 1.0)
	m.ps = append(m.ps, m.ps[len(m.ps)-1]*2)
	return m
}

// Sample draws one jitter value in picoseconds.
func (m *JitterModel) Sample(rng *hw.RNG) int64 {
	u := rng.Float64()
	for i := 1; i < len(m.qs); i++ {
		if u <= m.qs[i] {
			span := m.qs[i] - m.qs[i-1]
			frac := 0.0
			if span > 0 {
				frac = (u - m.qs[i-1]) / span
			}
			return int64(m.ps[i-1] + frac*(m.ps[i]-m.ps[i-1]))
		}
	}
	return int64(m.ps[len(m.ps)-1])
}

// Percentile evaluates the model's jitter at quantile q, for reports.
func (m *JitterModel) Percentile(q float64) int64 {
	for i := 1; i < len(m.qs); i++ {
		if q <= m.qs[i] {
			span := m.qs[i] - m.qs[i-1]
			frac := 0.0
			if span > 0 {
				frac = (q - m.qs[i-1]) / span
			}
			return int64(m.ps[i-1] + frac*(m.ps[i]-m.ps[i-1]))
		}
	}
	return int64(m.ps[len(m.ps)-1])
}

// Path is a one-way network path: fixed propagation delay plus
// sampled jitter.
type Path struct {
	OneWayPs int64
	Jitter   *JitterModel
	rng      *hw.RNG
}

// PaperPath models the inter-university link: 10 ms RTT, paper jitter.
func PaperPath(seed uint64) *Path {
	return &Path{OneWayPs: 5 * Ms, Jitter: PaperJitter(), rng: hw.NewRNG(seed)}
}

// Delay samples the one-way delay for one packet.
func (p *Path) Delay() int64 {
	return p.OneWayPs + p.Jitter.Sample(p.rng)
}

// ThinkTimeModel generates client think times between requests. The
// legitimate NFS traffic in the paper is bursty ("high variability"),
// which is what defeats the regularity test's assumptions; the model
// mixes short intra-burst gaps with longer pauses.
type ThinkTimeModel struct {
	// BurstGapPs is the median gap inside a burst; PausePs the median
	// pause between bursts; BurstLen the mean burst length.
	BurstGapPs int64
	PausePs    int64
	BurstLen   int
}

// DefaultThinkTime targets the paper's observed median IPD of ~7.4 ms
// at the server.
func DefaultThinkTime() ThinkTimeModel {
	return ThinkTimeModel{BurstGapPs: 6 * Ms, PausePs: 22 * Ms, BurstLen: 9}
}

// Schedule generates n request departure times (client clock, ps).
func (m ThinkTimeModel) Schedule(n int, rng *hw.RNG) []int64 {
	out := make([]int64, n)
	t := int64(0)
	inBurst := 0
	for i := 0; i < n; i++ {
		var gap int64
		if inBurst > 0 {
			// Log-normal-ish spread around the burst gap.
			gap = int64(float64(m.BurstGapPs) * math.Exp(rng.Norm(0, 0.35)))
			inBurst--
		} else {
			gap = int64(float64(m.PausePs) * math.Exp(rng.Norm(0, 0.5)))
			inBurst = int(rng.Int63n(int64(m.BurstLen*2))) + 1
		}
		if gap < Ms/10 {
			gap = Ms / 10
		}
		t += gap
		out[i] = t
	}
	return out
}

// Workload describes one client session against the server.
type Workload struct {
	// Requests are the raw request payloads in order.
	Requests [][]byte
	// Departures are client-side send times (ps), same length.
	Departures []int64
}

// Validate checks internal consistency.
func (w *Workload) Validate() error {
	if len(w.Requests) != len(w.Departures) {
		return fmt.Errorf("netsim: %d requests but %d departures", len(w.Requests), len(w.Departures))
	}
	for i := 1; i < len(w.Departures); i++ {
		if w.Departures[i] < w.Departures[i-1] {
			return fmt.Errorf("netsim: departures not monotone at %d", i)
		}
	}
	return nil
}

// ToServerInputs converts the client workload into the server-side
// input schedule by pushing every request through the path. Network
// reordering is resolved FIFO (TCP-like): arrivals are forced
// monotone.
func (w *Workload) ToServerInputs(p *Path, startPs int64) []core.InputEvent {
	inputs := make([]core.InputEvent, 0, len(w.Requests))
	prev := int64(0)
	for i, req := range w.Requests {
		at := startPs + w.Departures[i] + p.Delay()
		if at < prev {
			at = prev
		}
		prev = at
		inputs = append(inputs, core.InputEvent{ArrivalPs: at, Payload: req})
	}
	return inputs
}

// DeliverToClient timestamps server outputs at the client side of the
// path, modeling what the covert channel's receiver observes.
func DeliverToClient(outputs []core.OutputEvent, p *Path) []int64 {
	out := make([]int64, len(outputs))
	prev := int64(0)
	for i, o := range outputs {
		at := o.TimePs + p.Delay()
		if at < prev {
			at = prev
		}
		prev = at
		out[i] = at
	}
	return out
}
