package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
)

// workers is the campaign pool size: one per CPU, as fic's default.
func workers() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// shardOut is one campaign shard's output.
type shardOut struct {
	tables  []byte        // rendered text tables
	runs    int           // runs collected
	live    time.Duration // census only: the live campaign call
	metrics []journal.Metrics
	replay  time.Duration    // census only: ReplayOnly campaign wall
	load    time.Duration    // census only: journal load
	bytes   int64            // census only: journal size
	log     []journal.Record // census only: the journal's run records
}

// render renders campaign results as fic's text tables.
func render(res *experiment.Results) ([]byte, error) {
	var buf bytes.Buffer
	if err := (experiment.TextFormat{}).Render(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// paperAllConfig is `fic -experiment all` on the given test cases:
// the default engine and the paper's 40 s window.
func paperAllConfig(cs int64, cases []int) experiment.Config {
	return experiment.Config{
		Spec: experiment.Spec{Grid: gridEdge, Seed: cs, Cases: cases},
		Exec: experiment.Exec{Workers: workers()},
	}
}

// censusConfig is `fic exhaustive` on the given test cases: the memo
// engine, journaling to jw when it is non-nil.
func censusConfig(cs int64, cases []int, jw *journal.Writer) experiment.Config {
	return experiment.Config{
		Spec: experiment.Spec{Grid: gridEdge, Seed: cs, Cases: cases, Exhaustive: true},
		Exec: experiment.Exec{Mode: inject.ModeMemo, Workers: workers(), Journal: jw},
	}
}

// paperAllShard runs the `fic -experiment all` protocol — E1 then E2 on
// the default engine, 40 s window — restricted to the given test cases.
func paperAllShard(cs int64, cases []int, pc *passClock, tr *tracer) (shardOut, error) {
	var out shardOut
	cfg := paperAllConfig(cs, cases)
	pc.mark()
	sp := tr.begin("experiment.RunE1")
	e1, err := experiment.RunE1(cfg)
	tr.end(sp)
	if err != nil {
		return out, err
	}

	sp = tr.begin("experiment.RunE2")
	e2, err := experiment.RunE2(cfg)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.runs = e1.Runs + e2.Runs
	out.metrics = []journal.Metrics{e1.Metrics, e2.Metrics}
	out.tables, err = render(&experiment.Results{Spec: cfg.Spec, E1: e1, E2: e2})
	return out, err
}

// censusShard runs `fic exhaustive` — every RAM/stack fault position on
// the memo engine — restricted to the given test cases, with a journal;
// then loads the journal back and replays it with ReplayOnly. The
// replayed tables must equal the live ones: out.tables is empty when
// they do not.
func censusShard(cs int64, cases []int, dir string, pc *passClock, tr *tracer) (shardOut, error) {
	var out shardOut
	path := filepath.Join(dir, fmt.Sprintf("census-%d-%v.jsonl", cs, cases))
	defer os.Remove(path)
	jw, err := journal.Create(path)
	if err != nil {
		return out, err
	}
	cfg := censusConfig(cs, cases, jw)
	pc.mark()
	began := time.Now()
	sp := tr.begin("experiment.RunE2.exhaustive")
	live, err := experiment.RunE2(cfg)
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.live = time.Since(began)
	out.runs = live.Runs
	out.metrics = []journal.Metrics{live.Metrics}
	liveTables, err := render(&experiment.Results{Spec: cfg.Spec, E2: live})
	if err != nil {
		return out, err
	}

	began = time.Now()
	sp = tr.begin("journal.Load")
	log, err := journal.Load(path)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.load = time.Since(began)
	out.log = log.Runs
	if st, err := os.Stat(path); err == nil {
		out.bytes = st.Size()
	}

	began = time.Now()
	rcfg := cfg
	rcfg.Journal = nil
	rcfg.Resume, rcfg.ReplayOnly = log, true
	sp = tr.begin("experiment.RunE2.replay")
	replayed, err := experiment.RunE2(rcfg)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.replay = time.Since(began)
	// The runner line of an exhaustive report is execution telemetry of
	// the live campaign; a replay dispatches nothing, so it carries the
	// live campaign's counters for the comparison.
	replayed.Metrics = live.Metrics
	replayTables, err := render(&experiment.Results{Spec: cfg.Spec, E2: replayed})
	if err != nil {
		return out, err
	}
	if bytes.Equal(liveTables, replayTables) {
		out.tables = liveTables
	}
	return out, nil
}

// checkShard compares a shard's tables with its reference digest and
// returns the number of its ops that count as failed: all of them on a
// mismatch (or when the tables are missing).
func checkDigest(tables []byte, want string, runs int) int {
	if len(tables) == 0 || digest(tables) != want {
		return runs
	}
	return 0
}

// Nominal shard durations on a 2-core x86-64 container, which size a
// run's pass count from --seconds.
const (
	paperAllShardS = 6.7
	censusShardS   = 3.9
)

// firstRun starts the workload's first campaign call setupRepeats times
// and cancels it as soon as its first run completes: the time to that
// run is the campaign's set-up (config defaults, job lists, batches,
// workers, the case profile) as a user waits for it.
func (r *run) firstRun(cfg experiment.Config, call func(experiment.Config) error) error {
	for k := 0; k < setupRepeats; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		var first time.Duration
		began := time.Now()
		cfg.Context = ctx
		cfg.Progress = func(journal.ProgressEvent) {
			if first == 0 {
				first = time.Since(began)
				cancel()
			}
		}
		err := call(cfg)
		cancel()
		if first == 0 {
			return fmt.Errorf("set-up: no run completed: %v", err)
		}
		r.setup = append(r.setup, secs(first))
	}
	return nil
}

// shardPasses runs the shard in repeated passes and checks each pass's
// output against digest want. A pass is one request: the unit a ficd
// worker claims.
func (r *run) shardPasses(want string, nominal float64, fn func(pc *passClock) (shardOut, error)) error {
	if want == "" {
		return fmt.Errorf("no reference digest for campaign seed %d", r.refs.campaignSeed(r.seed))
	}
	return r.passLoop(nominal, func(pc *passClock) (int, int, error) {
		sp := r.tr.begin("shard")
		out, err := fn(pc)
		r.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		r.campaignLayers(out)
		return out.runs, checkDigest(out.tables, want, out.runs), nil
	})
}

// runPaperAll is the paper-all workload: the E1+E2 protocol of
// `fic -experiment all`, one op per run.
func runPaperAll(r *run) error {
	cs := r.refs.campaignSeed(r.seed)
	r.notes = append(r.notes, fmt.Sprintf("paper-all: campaign seed %d, cases %v", cs, shard))
	err := r.firstRun(paperAllConfig(cs, shard), func(cfg experiment.Config) error {
		_, err := experiment.RunE1(cfg)
		return err
	})
	if err != nil {
		return err
	}
	return r.shardPasses(r.refs.PaperAll[key(cs)], paperAllShardS, func(pc *passClock) (shardOut, error) {
		return paperAllShard(cs, shard, pc, r.tr)
	})
}

// runCensus is the census workload: `fic exhaustive` with a journal,
// read back and replayed, one op per run.
func runCensus(r *run) error {
	cs := r.refs.campaignSeed(r.seed)
	r.notes = append(r.notes, fmt.Sprintf("census: campaign seed %d, cases %v", cs, censusCases))
	err := r.firstRun(censusConfig(cs, censusCases, nil), func(cfg experiment.Config) error {
		_, err := experiment.RunE2(cfg)
		return err
	})
	if err != nil {
		return err
	}
	return r.shardPasses(r.refs.Census[key(cs)], censusShardS, func(pc *passClock) (shardOut, error) {
		return censusShard(cs, censusCases, r.dir, pc, r.tr)
	})
}
