package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"easig/internal/inject"
	"easig/internal/journal"
)

// This file is the sweep driver: the one work-stealing pool and
// collector that every sweep over the (test case × error) grid runs
// on. Campaigns (RunE1, RunE2) dispatch version-run batches through it;
// the optimizer's lattice sweep (internal/optimize) dispatches probe
// chunks. Each passes only what differs — its item and result types, a
// per-worker serve function holding its own per-case runners or
// probes, and a collect function that aggregates and journals.
//
// Items are partitioned upfront into per-worker queues in contiguous
// case-major blocks, so a worker mostly stays on few test cases and its
// per-case runners are reused across items. Each queue is an immutable
// item slice with an atomic cursor: claiming an item is one
// compare-and-swap (no locks, no ABA — the cursor only advances). A
// worker that drains its own queue steals from the others with the
// same CAS, so a skewed grid (memo batches vary from microseconds for
// all-pruned chunks to seconds for all-live ones) still saturates the
// pool. The expensive per-case state is shared, not stolen with the
// item: an inject.ProfileCache computes each case's nominal-prefix
// snapshot (and for prune and memo modes the full-window profile and
// liveness map) once per sweep, read-only afterwards; memo-mode
// campaign workers exchange outcomes through a per-case
// inject.SharedMemo, merged at batch barriers under a short mutex.
// Results reach one collector goroutine, the only caller of Collect,
// so aggregation and journal appends need no locks.
//
// None of this may change a cell of the paper's Tables 7-9 or a scored
// probe: per-run seeds depend only on the test case (not the worker),
// the §3.4 aggregates are order-independent integer totals, and journal
// comparisons key on run coordinates. TestWorkQueueConcurrentClaims
// gates exactly-once claims under contention, and
// TestSchedulerWorkerCountEquivalence pins 1-worker vs 8-worker
// campaigns to byte-identical tables and records.

// workQueue is one worker's share of a work-item list. take claims the
// next item lock-free; the same method is the steal path when another
// worker calls it.
type workQueue[T any] struct {
	items []T
	next  atomic.Int64
}

// take claims the queue's next item, or reports an empty queue.
func (q *workQueue[T]) take() (T, bool) {
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

// partitionQueues splits the item list into near-equal contiguous
// blocks, one per worker. Contiguity preserves the case-major item
// order inside each queue, which is what makes per-case runner reuse
// effective.
func partitionQueues[T any](items []T, workers int) []*workQueue[T] {
	queues := make([]*workQueue[T], workers)
	per := len(items) / workers
	rem := len(items) % workers
	lo := 0
	for w := 0; w < workers; w++ {
		n := per
		if w < rem {
			n++
		}
		queues[w] = &workQueue[T]{items: items[lo : lo+n]}
		lo += n
	}
	return queues
}

// nextItem serves worker w: its own queue first, then a steal sweep
// over the other queues. stole reports whether the item came from
// another worker's queue.
func nextItem[T any](queues []*workQueue[T], w int) (item T, ok, stole bool) {
	if item, ok = queues[w].take(); ok {
		return item, true, false
	}
	for off := 1; off < len(queues); off++ {
		if item, ok = queues[(w+off)%len(queues)].take(); ok {
			return item, true, true
		}
	}
	var zero T
	return zero, false, false
}

// Worker is one pool worker's state. Serve runs one work item and
// hands each result to emit; emit returns false once the sweep is
// canceled, and Serve should then return. Stats reports the worker's
// runner statistics; the driver calls it once, when the worker exits.
type Worker[T, R any] interface {
	Serve(item T, emit func(R) bool) error
	Stats() inject.RunnerStats
}

// Sweep is one dispatch through the driver: items of type T served
// into results of type R.
type Sweep[T, R any] struct {
	// Experiment names the sweep in progress events, metrics and errors.
	Experiment string
	// Mode is the resolved engine the workers run on (metrics only).
	Mode inject.Mode
	// Workers is the pool size (at least 1).
	Workers int
	// Context, when non-nil, cancels the sweep.
	Context context.Context
	// Progress, when non-nil, is called from the collector after every
	// collected result.
	Progress func(journal.ProgressEvent)
	// Resumed counts the results replayed from a journal before the
	// dispatch; Total counts every result, replayed plus dispatched.
	Resumed, Total int
	// NewWorker builds one worker's state, once per worker goroutine.
	NewWorker func() Worker[T, R]
	// Collect consumes one result on the single collector goroutine. An
	// error (a failed journal write) cancels the pool and is returned;
	// no later result is collected.
	Collect func(R) error
}

// Run dispatches items across the pool and feeds their results to
// Collect. The first worker error cancels the remaining workers, so a
// failing sweep stops promptly and its journal keeps a clean
// interruption point; the parent Context cancels the same way. The
// returned metrics cover the dispatched results, with per-worker
// busy/runs/stolen figures and the workers' runner stats folded in.
func (s Sweep[T, R]) Run(items []T) (journal.Metrics, error) {
	parent := s.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	queues := partitionQueues(items, s.Workers)
	out := make(chan R)
	errCh := make(chan error, 1)
	// tally is one worker's share, written only by that worker and read
	// after every worker has exited.
	type tally struct {
		busy        time.Duration
		runs, stole int
		stats       inject.RunnerStats
	}
	tallies := make([]tally, s.Workers)
	var wg sync.WaitGroup
	for w := range tallies {
		t := &tallies[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := s.NewWorker()
			defer func() { t.stats = wk.Stats() }()
			emit := func(r R) bool {
				select {
				case out <- r:
					t.runs++
					return true
				case <-ctx.Done():
					return false
				}
			}
			for ctx.Err() == nil {
				item, ok, stole := nextItem(queues, w)
				if !ok {
					return
				}
				if stole {
					t.stole++
				}
				began := time.Now()
				err := wk.Serve(item, emit)
				t.busy += time.Since(began)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					cancel()
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	start := time.Now()
	completed := s.Resumed
	var collectErr error
	for r := range out {
		completed++
		if collectErr != nil {
			continue
		}
		if collectErr = s.Collect(r); collectErr != nil {
			cancel()
			continue
		}
		if s.Progress != nil {
			s.Progress(progress(s.Experiment, completed, s.Resumed, s.Total, start))
		}
	}

	wall := time.Since(start)
	m := journal.Metrics{
		Experiment: s.Experiment,
		Runs:       completed - s.Resumed,
		Resumed:    s.Resumed,
		WallMs:     wall.Milliseconds(),
		Runner:     s.Mode.String(),
	}
	var st inject.RunnerStats
	for w, t := range tallies {
		st = st.Add(t.stats)
		wm := journal.WorkerMetrics{Worker: w, Runs: t.runs, BusyMs: t.busy.Milliseconds(), Stolen: t.stole}
		if wall > 0 {
			wm.Utilization = float64(t.busy) / float64(wall)
		}
		m.Workers = append(m.Workers, wm)
	}
	if wall > 0 {
		m.RunsPerSec = float64(m.Runs) / wall.Seconds()
	}
	m.Errors, m.Simulated, m.Pruned, m.MemoHits = st.Errors, st.Simulated, st.Pruned, st.MemoHits
	m.PruneRate, m.MemoHitRate = st.PruneRate(), st.MemoHitRate()

	switch {
	case collectErr != nil:
		return m, collectErr
	case len(errCh) > 0:
		return m, fmt.Errorf("experiment: %s run failed: %w", s.Experiment, <-errCh)
	case parent.Err() != nil:
		return m, fmt.Errorf("experiment: %s interrupted: %w", s.Experiment, parent.Err())
	default:
		return m, nil
	}
}

// progress is the progress event of a sweep started at start that has
// completed runs of total, resumed of them replayed from a journal. The
// rate and ETA count live runs only, so a resumed sweep does not report
// its replayed runs as throughput.
func progress(exp string, completed, resumed, total int, start time.Time) journal.ProgressEvent {
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
