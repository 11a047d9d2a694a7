package experiment

import (
	"sync/atomic"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/target"
)

// This file is the campaign's parallel work-stealing scheduler: how the
// (test case × error-position) grid reaches the worker pool.
//
// Batches are partitioned upfront into per-worker queues in contiguous
// case-major blocks, so a worker mostly stays on few test cases and its
// per-case runners (snapshot engines, memo runners) are reused across
// batches. Each queue is an immutable batch slice with an atomic
// cursor: claiming a batch is one compare-and-swap, with no locks and
// no channel hops. A worker that drains its own queue steals from the
// other queues with the same CAS — idle workers finish the stragglers
// of loaded ones, so a skewed grid (memo batches vary from
// microseconds for all-pruned chunks to seconds for all-live ones)
// still saturates the pool.
//
// The expensive per-case state is shared, not stolen with the batch: an
// inject.ProfileCache computes each case's nominal-prefix snapshot (and
// for prune and memo modes the full-window nominal profile + liveness
// map) exactly once per campaign, and every worker's runner is built
// from that read-only profile. Memoized outcomes cross workers through a
// per-case inject.SharedMemo, merged at batch barriers.
//
// Concurrency contract, structure by structure: WorkQueue claims are a
// single CAS on an atomic cursor over an immutable batch slice (no
// locks, no ABA — the cursor only advances); CaseProfiles are immutable
// after construction and shared read-only; SharedMemo reads are one
// atomic load of an immutable map, writes merge at batch barriers under
// a short mutex; journal appends flow through the writer's single
// drainer goroutine, which coalesces queued lines into 64 KiB
// line-aligned batches. None of this may change a cell of the paper's
// Tables 7-9: per-run seeds depend only on the test case (not the
// worker), the §3.4 protocol's aggregates are order-independent
// integer totals, and journal comparisons key on run coordinates.
// TestWorkQueueConcurrentClaims gates exactly-once batch claims under
// contention, and TestSchedulerWorkerCountEquivalence pins 1-worker vs
// 8-worker campaigns to byte-identical tables and record sets.

// WorkQueue is one worker's share of a work-item list. Take claims the
// next item lock-free; the same method is the steal path when another
// worker calls it. The item type is generic because two sweeps share
// this scheduler: the campaign layer queues version-run batches, and
// the optimizer's lattice sweep (internal/optimize) queues probe
// chunks over the same (case × error) grid.
type WorkQueue[T any] struct {
	items []T
	next  atomic.Int64
}

// Take claims the queue's next item, or reports an empty queue.
func (q *WorkQueue[T]) Take() (T, bool) {
	for {
		i := q.next.Load()
		if i >= int64(len(q.items)) {
			var zero T
			return zero, false
		}
		if q.next.CompareAndSwap(i, i+1) {
			return q.items[i], true
		}
	}
}

// PartitionQueues splits the item list into near-equal contiguous
// blocks, one per worker. Contiguity preserves the case-major item
// order inside each queue, which is what makes per-case runner reuse
// effective.
func PartitionQueues[T any](items []T, workers int) []*WorkQueue[T] {
	queues := make([]*WorkQueue[T], workers)
	per := len(items) / workers
	rem := len(items) % workers
	lo := 0
	for w := 0; w < workers; w++ {
		n := per
		if w < rem {
			n++
		}
		queues[w] = &WorkQueue[T]{items: items[lo : lo+n]}
		lo += n
	}
	return queues
}

// NextItem serves worker w: its own queue first, then a steal sweep
// over the other queues. stole reports whether the item came from
// another worker's queue.
func NextItem[T any](queues []*WorkQueue[T], w int) (item T, ok, stole bool) {
	if item, ok = queues[w].Take(); ok {
		return item, true, false
	}
	for off := 1; off < len(queues); off++ {
		if item, ok = queues[(w+off)%len(queues)].Take(); ok {
			return item, true, true
		}
	}
	var zero T
	return zero, false, false
}

// workerRunners is one worker's runner state: the per-case runners it
// has built so far (reused across every batch of the same case), the
// shared campaign caches they are built from, and the scratch slices
// of the batch loop.
type workerRunners struct {
	cfg    Config
	mode   inject.Mode
	cache  *inject.ProfileCache
	memos  map[int]*inject.SharedMemo
	byCase map[int]inject.Runner

	versions []target.Version
	results  []inject.RunResult
}

func newWorkerRunners(cfg Config, mode inject.Mode, cache *inject.ProfileCache, memos map[int]*inject.SharedMemo) *workerRunners {
	return &workerRunners{
		cfg:    cfg,
		mode:   mode,
		cache:  cache,
		memos:  memos,
		byCase: make(map[int]inject.Runner),
	}
}

// runner returns the worker's runner for b's test case, building it on
// first use. Snapshot engines fast-forward by restoring the shared
// profile snapshot instead of re-simulating the nominal prefix. Prune
// runners start on that snapshot too and fetch the case's full nominal
// profile and liveness map only after their first error, so no worker's
// first result waits for the full-window profile. Memo runners take
// the full profile up front and share the case's outcome memo.
func (wr *workerRunners) runner(b batch) (inject.Runner, error) {
	if r, ok := wr.byCase[b.caseIdx]; ok {
		return r, nil
	}
	rc := inject.RunConfig{
		TestCase:      b.tc,
		Policy:        wr.cfg.Policy,
		ObservationMs: wr.cfg.ObservationMs,
		Seed:          runSeed(wr.cfg.Seed, b.caseIdx),
		Recovery:      wr.cfg.Recovery,
		Placement:     wr.cfg.Placement,
	}
	var r inject.Runner
	var err error
	switch wr.mode {
	case inject.ModeSnapshot:
		var p *inject.CaseProfile
		if p, err = wr.cache.Get(b.caseIdx, rc, false); err == nil {
			r, err = inject.NewEngineFromProfile(p)
		}
	case inject.ModePrune:
		var p *inject.CaseProfile
		if p, err = wr.cache.Get(b.caseIdx, rc, false); err == nil {
			r, err = inject.NewPruneRunnerFromProfile(p, func() (*inject.CaseProfile, error) {
				return wr.cache.Get(b.caseIdx, rc, true)
			})
		}
	case inject.ModeMemo:
		var p *inject.CaseProfile
		if p, err = wr.cache.Get(b.caseIdx, rc, true); err == nil {
			r, err = inject.NewMemoRunnerFromProfile(p, wr.memos[b.caseIdx])
		}
	default:
		r, err = inject.NewRunner(wr.mode, rc)
	}
	if err != nil {
		return nil, err
	}
	wr.byCase[b.caseIdx] = r
	return r, nil
}

// stats folds the per-case runners' serving statistics; the worker
// calls it once on exit, so no per-draw synchronization is needed.
func (wr *workerRunners) stats() inject.RunnerStats {
	var st inject.RunnerStats
	for _, r := range wr.byCase {
		if sr, ok := r.(inject.StatsReporter); ok {
			st = st.Add(sr.Stats())
		}
	}
	return st
}

// runBatch serves one batch through the worker's per-case runner: one
// RunError per error with every version the batch's jobs request. At
// the batch barrier the runner's freshly memoized outcomes are merged
// into the case's shared memo.
func (wr *workerRunners) runBatch(b batch, emit func(outcome) bool) error {
	runner, err := wr.runner(b)
	if err != nil {
		return err
	}
	for i := 0; i < len(b.jobs); {
		j := i
		for j < len(b.jobs) && b.jobs[j].errIdx == b.jobs[i].errIdx {
			j++
		}
		group := b.jobs[i:j]
		wr.versions = wr.versions[:0]
		for _, g := range group {
			wr.versions = append(wr.versions, g.version)
		}
		if cap(wr.results) < len(group) {
			wr.results = make([]inject.RunResult, len(group))
		}
		results := wr.results[:len(group)]
		// Zeroed slots, not reused ones: emitted results are retained
		// by the collector, so the runner must not recycle their maps.
		for k := range results {
			results[k] = inject.RunResult{}
		}
		if err := runner.RunError(group[0].err, wr.versions, results); err != nil {
			return err
		}
		for gi, g := range group {
			if !emit(outcome{job: g, res: results[gi]}) {
				return nil
			}
		}
		i = j
	}
	if f, ok := runner.(interface{ FlushShared() }); ok {
		f.FlushShared()
	}
	return nil
}

// Progress is the progress event of a sweep started at start that has
// completed runs of total, resumed of them replayed from a journal. The
// rate and ETA count live runs only, so a resumed sweep does not report
// its replayed runs as throughput. Campaigns and the optimizer's
// lattice sweep both report through it.
func Progress(exp string, completed, resumed, total int, start time.Time) journal.ProgressEvent {
	ev := journal.ProgressEvent{
		Experiment: exp,
		Completed:  completed,
		Resumed:    resumed,
		Total:      total,
		Elapsed:    time.Since(start),
	}
	if live := completed - resumed; ev.Elapsed > 0 && live > 0 {
		ev.RunsPerSec = float64(live) / ev.Elapsed.Seconds()
		ev.ETA = time.Duration(float64(total-completed) / ev.RunsPerSec * float64(time.Second))
	}
	return ev
}

// SweepMetrics is the journal.Metrics of a sweep that ran runs live
// (plus resumed replayed ones) in wall time on mode's runners, with the
// per-worker runner stats folded into its error accounting.
func SweepMetrics(exp string, mode inject.Mode, runs, resumed int, wall time.Duration, rstats []inject.RunnerStats) journal.Metrics {
	m := journal.Metrics{
		Experiment: exp,
		Runs:       runs,
		Resumed:    resumed,
		WallMs:     wall.Milliseconds(),
		Runner:     mode.String(),
	}
	if wall > 0 {
		m.RunsPerSec = float64(runs) / wall.Seconds()
	}
	var st inject.RunnerStats
	for _, s := range rstats {
		st = st.Add(s)
	}
	m.Errors = st.Errors
	m.Simulated = st.Simulated
	m.Pruned = st.Pruned
	m.MemoHits = st.MemoHits
	m.PruneRate = st.PruneRate()
	m.MemoHitRate = st.MemoHitRate()
	return m
}
