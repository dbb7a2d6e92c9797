package experiments

import (
	"fmt"
	"strings"

	"sanity/internal/covert"
	"sanity/internal/detect"
	"sanity/internal/nfs"
	"sanity/internal/stats"
)

// Figure8Cell is one (channel, detector) entry: the AUC and the ROC
// curve behind it.
type Figure8Cell struct {
	Channel  string
	Detector string
	AUC      float64
	Curve    []stats.ROCPoint
}

// Figure8Result is the full 4x5 detection matrix.
type Figure8Result struct {
	Cells []Figure8Cell
}

// Cell finds one entry.
func (r *Figure8Result) Cell(channel, detector string) (Figure8Cell, bool) {
	for _, c := range r.Cells {
		if c.Channel == channel && c.Detector == detector {
			return c, true
		}
	}
	return Figure8Cell{}, false
}

// Figure8 runs the full covert-channel detection experiment:
//
//  1. Record training traces of legitimate traffic and train the
//     statistical detectors (and the adaptive channels, which also
//     learn from legitimate traffic).
//  2. Record test traces: legitimate ones, and compromised ones for
//     each of the four channels (fresh secret bits per trace).
//  3. Score every test trace with every detector; sweep thresholds
//     into ROC curves and AUCs.
//
// The TDR detector replays each test trace's log on the known-good
// binary; the statistical detectors see only the server-side IPDs.
func Figure8(sizes Sizes, baseSeed uint64) (*Figure8Result, error) {
	// --- 1. Training traffic ---
	var training [][]int64
	var pooledTraining []int64
	for i := 0; i < sizes.Fig8TrainTraces; i++ {
		seed := baseSeed + uint64(i)*31
		exec, _, err := nfsTrace(sizes.Fig8Packets, seed, seed+1, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig8 training: %w", err)
		}
		ipds := exec.OutputIPDs()
		training = append(training, ipds)
		pooledTraining = append(pooledTraining, ipds...)
	}
	detectors, err := detect.Statistical(training)
	if err != nil {
		return nil, err
	}
	// Scale the regularity window to the trace length so short test
	// configurations still produce enough windows.
	detect.ScaleRegularity(detectors, sizes.Fig8Packets)
	tdr := detect.NewTDR(nfs.ServerProgram(), baseConfig(baseSeed+777))
	allDetectors := append(detectors, tdr)

	channels, err := covert.All(pooledTraining, baseSeed+99)
	if err != nil {
		return nil, err
	}
	// The needle transmits one bit every Period packets; the paper's
	// one-minute traces carry ~80 marks at Period=100. Scale the
	// period so scaled-down traces still carry several marks (a trace
	// with zero 1-bits modifies nothing and is undetectable by
	// definition).
	for _, ch := range channels {
		if n, ok := ch.(*covert.Needle); ok {
			p := int64(sizes.Fig8Packets / 8)
			if p < 16 {
				p = 16
			}
			if p > 100 {
				p = 100
			}
			n.Period = p
		}
	}

	// --- 2. Test traces ---
	var legit []*detect.Trace
	for i := 0; i < sizes.Fig8LegitTraces; i++ {
		seed := baseSeed + 10_000 + uint64(i)*37
		exec, log, err := nfsTrace(sizes.Fig8Packets, seed, seed+2, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig8 legit: %w", err)
		}
		legit = append(legit, &detect.Trace{IPDs: exec.OutputIPDs(), Log: log, Play: exec})
	}
	covertTraces := make(map[string][]*detect.Trace)
	for ci, ch := range channels {
		for i := 0; i < sizes.Fig8CovertTraces; i++ {
			seed := baseSeed + 50_000 + uint64(ci)*10_000 + uint64(i)*41
			secret := covert.RandomBits(sizes.Fig8Packets, seed^0xFEED)
			exec, log, err := nfsTrace(sizes.Fig8Packets, seed, seed+2, ch.Hook(secret))
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 %s: %w", ch.Name(), err)
			}
			covertTraces[ch.Name()] = append(covertTraces[ch.Name()], &detect.Trace{
				IPDs: exec.OutputIPDs(), Log: log, Play: exec,
			})
		}
	}

	// --- 3. Score and build the matrix ---
	// Legitimate scores per detector are shared across channels.
	negScores := make(map[string][]float64)
	for _, d := range allDetectors {
		for _, tr := range legit {
			s, err := d.Score(tr)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 %s on legit: %w", d.Name(), err)
			}
			negScores[d.Name()] = append(negScores[d.Name()], s)
		}
	}
	res := &Figure8Result{}
	for _, ch := range channels {
		for _, d := range allDetectors {
			var pos []float64
			for _, tr := range covertTraces[ch.Name()] {
				s, err := d.Score(tr)
				if err != nil {
					return nil, fmt.Errorf("experiments: fig8 %s on %s: %w", d.Name(), ch.Name(), err)
				}
				pos = append(pos, s)
			}
			neg := negScores[d.Name()]
			res.Cells = append(res.Cells, Figure8Cell{
				Channel:  ch.Name(),
				Detector: d.Name(),
				AUC:      stats.AUC(pos, neg),
				Curve:    stats.ROC(pos, neg),
			})
		}
	}
	return res, nil
}

// FormatFigure8 renders the AUC matrix the way the paper's legends
// report it.
func FormatFigure8(r *Figure8Result) string {
	detOrder := []string{"shape", "ks", "regularity", "cce", "sanity-tdr"}
	chanOrder := []string{"ipctc", "trctc", "mbctc", "needle"}
	paperAUC := map[string]map[string]float64{
		"ipctc":  {"shape": 1.000, "ks": 1.000, "regularity": 1.000, "cce": 1.000, "sanity-tdr": 1.000},
		"trctc":  {"shape": 0.457, "ks": 0.833, "regularity": 0.726, "cce": 1.000, "sanity-tdr": 1.000},
		"mbctc":  {"shape": 0.223, "ks": 0.412, "regularity": 0.527, "cce": 0.885, "sanity-tdr": 1.000},
		"needle": {"shape": 0.751, "ks": 0.813, "regularity": 0.532, "cce": 0.638, "sanity-tdr": 1.000},
	}
	var sb strings.Builder
	sb.WriteString("Figure 8: detection AUC per channel and detector (paper's AUC in parentheses)\n")
	sb.WriteString("  channel   shape        ks           regularity   cce          sanity-tdr\n")
	for _, ch := range chanOrder {
		fmt.Fprintf(&sb, "  %-8s", ch)
		for _, d := range detOrder {
			if cell, ok := r.Cell(ch, d); ok {
				fmt.Fprintf(&sb, "  %.3f (%.3f)", cell.AUC, paperAUC[ch][d])
			} else {
				sb.WriteString("      -      ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
