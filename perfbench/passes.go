package main

import (
	"fmt"
	"math"
	"time"
)

// mark is a point on a pass's clock.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

// passClock marks the wall and process CPU time where a pass's measured
// part starts and where the pass ends.
type passClock struct {
	marks []mark
}

func (c *passClock) mark() { c.marks = append(c.marks, mark{time.Now(), processCPU()}) }

// minPasses is the fewest passes a run makes over its unit of work.
const minPasses = 2

// passLoop runs one unit of work — a campaign shard, a sweep — several
// times: --seconds over the unit's nominal duration, at least
// minPasses. pass runs the unit, marking the clock when its measured
// part begins, and returns its ops and failed ops. Each pass is one
// request; ops_per_s and cpu_us_per_op are the medians of the passes'
// rates, so a pass that a slow spell of the host lands on does not move
// them. README.md says why it is not a fastest-segment estimate.
func (r *run) passLoop(nominal float64, pass func(*passClock) (ops, failed int, err error)) error {
	n := max(int(math.Round(r.seconds/nominal)), minPasses)
	for i := 0; i < n; i++ {
		pc := &passClock{}
		o, f, err := pass(pc)
		if err != nil {
			return err
		}
		pc.mark()
		start, end := pc.marks[0], pc.marks[len(pc.marks)-1]
		wall, cpu := end.wall.Sub(start.wall), end.cpu-start.cpu
		r.loop.wall += wall
		r.loop.cpu += cpu
		r.requests = append(r.requests, msOf(wall))
		r.rates = append(r.rates, float64(o)/wall.Seconds())
		r.cpuPerOp = append(r.cpuPerOp, float64(cpu.Nanoseconds())/1e3/float64(o))
		r.ops += o
		r.failed += f
	}
	r.notes = append(r.notes, fmt.Sprintf("%d passes over the same work; ops_per_s and cpu_us_per_op are their medians", n))
	return nil
}
