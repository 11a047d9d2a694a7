package experiment

import (
	"path/filepath"
	"sync"
	"testing"

	"easig/internal/inject"
	"easig/internal/journal"
)

// TestPartitionQueuesContiguous checks the queue partition: every batch
// lands in exactly one queue, queues are contiguous blocks in the
// original (case-major) order, and sizes differ by at most one.
func TestPartitionQueuesContiguous(t *testing.T) {
	batches := make([]batch, 10)
	for i := range batches {
		batches[i].caseIdx = i
	}
	queues := partitionQueues(batches, 4)
	if len(queues) != 4 {
		t.Fatalf("got %d queues, want 4", len(queues))
	}
	next := 0
	min, max := len(batches), 0
	for w, q := range queues {
		if n := len(q.items); n < min {
			min = n
		} else if n > max {
			max = n
		}
		for _, b := range q.items {
			if b.caseIdx != next {
				t.Fatalf("queue %d holds batch %d, want %d (partition not contiguous)", w, b.caseIdx, next)
			}
			next++
		}
	}
	if next != len(batches) {
		t.Fatalf("queues cover %d of %d batches", next, len(batches))
	}
	if max-min > 1 {
		t.Fatalf("queue sizes spread %d..%d; want near-equal", min, max)
	}
}

// TestNextBatchSteals checks the steal path: a worker whose own queue
// is empty claims the stragglers of loaded queues, and claims are
// flagged as stolen.
func TestNextBatchSteals(t *testing.T) {
	batches := make([]batch, 3)
	for i := range batches {
		batches[i].caseIdx = i
	}
	// Worker 1's queue is empty: 3 batches over 2 workers gives worker 0
	// two, worker 1 one — drain worker 1's own first.
	queues := partitionQueues(batches, 2)
	if b, ok, stole := nextItem(queues, 1); !ok || stole {
		t.Fatalf("own-queue claim: ok=%v stole=%v batch=%d", ok, stole, b.caseIdx)
	}
	for i := 0; i < 2; i++ {
		b, ok, stole := nextItem(queues, 1)
		if !ok || !stole {
			t.Fatalf("steal %d: ok=%v stole=%v batch=%d", i, ok, stole, b.caseIdx)
		}
	}
	if _, ok, _ := nextItem(queues, 1); ok {
		t.Fatal("claimed a batch from fully drained queues")
	}
}

// TestWorkQueueConcurrentClaims is the -race stress on the lock-free
// cursor: many workers hammering take/steal must claim every batch
// exactly once.
func TestWorkQueueConcurrentClaims(t *testing.T) {
	const nBatches, nWorkers = 512, 8
	batches := make([]batch, nBatches)
	for i := range batches {
		batches[i].caseIdx = i
	}
	queues := partitionQueues(batches, nWorkers)
	var mu sync.Mutex
	claims := make(map[int]int, nBatches)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok, _ := nextItem(queues, w)
				if !ok {
					return
				}
				mu.Lock()
				claims[b.caseIdx]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(claims) != nBatches {
		t.Fatalf("claimed %d distinct batches, want %d", len(claims), nBatches)
	}
	for i, n := range claims {
		if n != 1 {
			t.Fatalf("batch %d claimed %d times", i, n)
		}
	}
}

// runAtWorkers runs one campaign at a given worker count and returns
// its rendered tables, journal records and metrics.
func runAtWorkers(t *testing.T, exp string, workers int, mode inject.Mode,
	run func(Config) (interface{ renderTables() []string }, journal.Metrics, error)) matrixRow {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg, w, err := equivalenceConfig(31, path, mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	res, metrics, err := run(cfg)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s campaign at %d workers: %v", mode, workers, err)
	}
	if got := len(metrics.Workers); got != workers {
		t.Fatalf("metrics report %d workers, want %d", got, workers)
	}
	total := 0
	for _, wm := range metrics.Workers {
		total += wm.Runs
	}
	if total != metrics.Runs {
		t.Fatalf("per-worker runs sum to %d, metrics.Runs = %d", total, metrics.Runs)
	}
	return matrixRow{mode: mode, tables: res.renderTables(), records: loadRecords(t, path, exp), metrics: metrics}
}

// TestSchedulerWorkerCountEquivalence is the parallel-scheduler
// acceptance theorem: the same campaign dispatched at 1 and at 8
// workers — per-worker queues, stealing, shared profile cache, shared
// memo merges in nondeterministic order — renders byte-identical
// tables and journals identical per-run outcomes. E1 exercises the
// snapshot engine across every version; E2 under the memo runner
// exercises liveness pruning, cross-worker memoization (the E2 sample
// draws duplicates) and intra-case chunking; E2 under the prune runner
// (the default) exercises deferred profile fetches, where which errors
// are pruned depends on how many workers touch a case.
func TestSchedulerWorkerCountEquivalence(t *testing.T) {
	runE1 := func(cfg Config) (interface{ renderTables() []string }, journal.Metrics, error) {
		r, err := RunE1(cfg)
		if err != nil {
			return nil, journal.Metrics{}, err
		}
		return e1Tables{r}, r.Metrics, nil
	}
	runE2 := func(cfg Config) (interface{ renderTables() []string }, journal.Metrics, error) {
		r, err := RunE2(cfg)
		if err != nil {
			return nil, journal.Metrics{}, err
		}
		return e2Tables{r}, r.Metrics, nil
	}

	t.Run("E1-snapshot", func(t *testing.T) {
		one := runAtWorkers(t, ExperimentE1, 1, inject.ModeSnapshot, runE1)
		eight := runAtWorkers(t, ExperimentE1, 8, inject.ModeSnapshot, runE1)
		for i := range one.tables {
			if one.tables[i] != eight.tables[i] {
				t.Errorf("table %d differs between 1 and 8 workers:\n8 workers:\n%s\n1 worker:\n%s",
					i, eight.tables[i], one.tables[i])
			}
		}
		diffRecords(t, "8-workers", eight.records, one.records)
	})
	for _, mode := range []inject.Mode{inject.ModeMemo, inject.ModePrune} {
		t.Run("E2-"+mode.String(), func(t *testing.T) {
			one := runAtWorkers(t, ExperimentE2, 1, mode, runE2)
			eight := runAtWorkers(t, ExperimentE2, 8, mode, runE2)
			for i := range one.tables {
				if one.tables[i] != eight.tables[i] {
					t.Errorf("table %d differs between 1 and 8 workers:\n8 workers:\n%s\n1 worker:\n%s",
						i, eight.tables[i], one.tables[i])
				}
			}
			diffRecords(t, "8-workers", eight.records, one.records)
			if one.metrics.Pruned == 0 || eight.metrics.Pruned == 0 {
				t.Errorf("nothing pruned (1 worker: %d, 8 workers: %d); the arm does not exercise pruning",
					one.metrics.Pruned, eight.metrics.Pruned)
			}
		})
	}
}
