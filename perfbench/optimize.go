package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"easig/internal/journal"
	"easig/internal/optimize"
	"easig/internal/physics"
)

// sweepOut is one lattice sweep's output.
type sweepOut struct {
	scores []byte // timing-free fields of every Score, one line each
	probes int
	score  time.Duration // last completed probe to optimize.Run's return
}

// scoreLines renders the timing-free fields of each Score. The cost
// axis, and with it the Pareto front and the recommendations, depends
// on the wall-clock calibration, so only probes, detections, latency,
// failing and averted counts are compared.
func scoreLines(scores []optimize.Score) []byte {
	var b bytes.Buffer
	for _, s := range scores {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%s\t%d\t%d\n", s.Name, s.Probes, s.Detected,
			strconv.FormatFloat(s.MeanLatencyMs, 'g', -1, 64), s.Failing, s.AvertedFailing)
	}
	return b.Bytes()
}

// calibrateE1 runs the optimizer's cost calibration the way
// `fic optimize` does: on the grid's center case under the sweep seed.
func calibrateE1(cs int64, tr *tracer) (optimize.CostModel, time.Duration, error) {
	grid := physics.Grid(gridEdge)
	began := time.Now()
	sp := tr.begin("optimize.Calibrate")
	cost, err := optimize.Calibrate(optimize.CalibrateOptions{TestCase: grid[len(grid)/2], Seed: cs})
	tr.end(sp)
	return cost, time.Since(began), err
}

// sweepE1 runs the `fic optimize -errors e1` lattice sweep — 768
// configurations over every E1 error and test case on the memo probe
// engine — against a calibrated cost model.
func sweepE1(cs int64, cost optimize.CostModel, tr *tracer) (sweepOut, error) {
	var out sweepOut
	var last time.Time
	opt := optimize.Options{
		Workers:  workers(),
		Cost:     &cost,
		Progress: func(journal.ProgressEvent) { last = time.Now() },
	}
	sp := tr.begin("optimize.Run")
	rep, err := optimize.Run(optimize.Spec{Errors: optimize.ErrorsE1, Grid: gridEdge, Seed: cs}, opt)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.score = time.Since(last)
	out.probes = rep.Probes
	out.scores = scoreLines(rep.Scores)
	return out, nil
}

// sweepS is the nominal sweep duration on a 2-core x86-64 container.
const sweepS = 11.1

// runOptimizeE1 is the optimize-e1 workload, one op per probe. Every
// sweep is calibrated first, as `fic optimize` does, and the first one
// setupRepeats times: calibration is set-up, the sweep is the measured
// pass.
func runOptimizeE1(r *run) error {
	cs := r.refs.campaignSeed(r.seed)
	want, ok := r.refs.OptimizeE1[key(cs)]
	if !ok {
		return fmt.Errorf("no reference digest for campaign seed %d", cs)
	}
	r.notes = append(r.notes, fmt.Sprintf("optimize-e1: campaign seed %d", cs))
	calibrations := setupRepeats
	return r.passLoop(sweepS, func(pc *passClock) (int, int, error) {
		var cost optimize.CostModel
		for k := 0; k < calibrations; k++ {
			c, d, err := calibrateE1(cs, r.tr)
			if err != nil {
				return 0, 0, err
			}
			cost = c
			r.setup = append(r.setup, secs(d))
			if r.tr != nil {
				r.acc.calibrateS = append(r.acc.calibrateS, secs(d))
			}
		}
		calibrations = 1
		pc.mark()
		out, err := sweepE1(cs, cost, r.tr)
		if err != nil {
			return 0, 0, err
		}
		if r.tr != nil {
			r.acc.scoreMs = append(r.acc.scoreMs, msOf(out.score))
		}
		return out.probes, checkDigest(out.scores, want, out.probes), nil
	})
}
