// Command perfbench is the repository's benchmark: it runs the
// north-star commands in one process — the paper's campaigns, the
// exhaustive census, the optimizer's lattice sweep and a sigmond
// replay — checks every output against a reference, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload paper-all --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with spans recorded around the calls into each
// internal package and prints the per-layer metrics instead. README.md
// in this directory lists every metric with its unit and layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload fills in while it measures.
type run struct {
	seed    int64
	seconds float64
	dir     string // scratch directory for journals and span dumps
	refs    *refs
	tr      *tracer // nil when --trace 0

	ops    int       // ops attempted in the measured loop
	failed int       // ops that errored or failed a correctness check
	loop   loopClock // wall and CPU time of the measured loop

	// rates and cpuPerOp, when set, are the workload's samples of ops
	// per second and CPU µs per op; the run reports their medians
	// instead of the loop totals.
	rates    []float64
	cpuPerOp []float64

	setup    []float64 // set-up samples, seconds
	requests []float64 // request round trips, milliseconds
	notes    []string  // human-readable context lines

	// layer holds per-layer metrics measured by the workload itself;
	// the traced layer suite fills in the rest.
	layer map[string]metric
	acc   layerAcc
}

// loopClock accumulates the wall and process CPU time of the measured
// op loop; set-up phases are excluded.
type loopClock struct {
	wall, cpu time.Duration
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*run) error{
	"paper-all":      runPaperAll,
	"census":         runCensus,
	"optimize-e1":    runOptimizeE1,
	"sigmond-replay": runSigmondReplay,
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: paper-all, census, optimize-e1 or sigmond-replay")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "measured time per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracer off; 1: per-layer metrics from a traced run")
		writeRefs = flag.Bool("write-refs", false, "recompute refs.json from the current code (slow) and exit")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *writeRefs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workdir holds a run's journals and the span dumps, inside the
// checkout's build directory.
const workdir = ".bench_build/work"

func mainErr(name string, seed int64, seconds float64, trace int, writeRefs bool) error {
	if writeRefs {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return err
		}
		return generateRefs(refsPath(), workdir)
	}
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rf, err := loadRefs(refsPath())
	if err != nil {
		return err
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{seed: seed, seconds: seconds, dir: dir, refs: rf, layer: map[string]metric{}}
	if trace == 1 {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if r.ops < 1 {
		return fmt.Errorf("%s: no op completed", name)
	}
	var ms map[string]metric
	if trace == 0 {
		ms = r.endToEnd()
	} else {
		if err := r.layerSuite(); err != nil {
			return fmt.Errorf("%s: layer suite: %w", name, err)
		}
		ms = r.layer
		if err := r.tr.dump(filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); err != nil {
			return err
		}
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# failed_op_share %.6f (%d of %d ops)\n", float64(r.failed)/float64(r.ops), r.failed, r.ops)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the metrics a user of the system sees.
func (r *run) endToEnd() map[string]metric {
	cpu := float64(r.loop.cpu.Microseconds()) / float64(r.ops)
	if len(r.cpuPerOp) > 0 {
		cpu = median(r.cpuPerOp)
	}
	pct, p99 := tail(r.requests)
	reqs := fmt.Sprintf("requests: n=%d, median %.4f ms, p%g %.4f ms", len(r.requests), median(r.requests), pct, p99)
	if len(r.requests) <= 10 {
		reqs += fmt.Sprintf(", round trips %.0f ms", r.requests)
	}
	r.notes = append(r.notes, reqs,
		fmt.Sprintf("setup: n=%d samples, median reported", len(r.setup)))
	return map[string]metric{
		"ops_per_s":     {r.opsPerSec(), "1/s"},
		"cpu_us_per_op": {cpu, "us"},
		"setup_s":       {median(r.setup), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MiB"},
	}
}

// opsPerSec is the run's ops per second: the median of the workload's
// rate samples when it took any, else ops over the loop's wall time.
func (r *run) opsPerSec() float64 {
	if len(r.rates) > 0 {
		return median(r.rates)
	}
	return float64(r.ops) / r.loop.wall.Seconds()
}

// refsPath locates refs.json next to the benchmark's sources: the
// benchmark runs from the repository root.
func refsPath() string { return filepath.Join("perfbench", "refs.json") }

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
