package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// multiKindJournal writes one line of every kind — header, run, probe,
// cost, claim and shard_done — through the Writer, using the values of
// the round-trip fixtures above, and returns the file's bytes.
func multiKindJournal(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "multi.jsonl")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, err := range []error{
		w.Header(Header{Experiment: "E1", Seed: 7, Grid: 2, Total: 3, Runner: "snapshot", ObservationMs: 1500, PeriodMs: 20, StartMs: 500}),
		w.Run(Record{Experiment: "E1", Version: 8, ErrIdx: 0, ErrID: "S1", CaseIdx: 0, Seed: 11, Detected: true, LatencyMs: 40, ByTest: map[int]int{1: 3}}),
		w.Run(Record{Experiment: "E1", Version: 8, ErrIdx: 0, ErrID: "S1", CaseIdx: 1, Seed: 12, Failed: true}),
		w.Header(Header{Experiment: "OPT-e1", Seed: 7, Grid: 2, Total: 1, Runner: "memo"}),
		w.Cost(Cost{Experiment: "OPT-e1", BaselineNs: 100, MasterNs: []float64{1, 2}, SlaveNs: []float64{3, 4}, AllNs: 110, Ticks: 512, Reps: 2}),
		w.Probe(Probe{Experiment: "OPT-e1", ErrIdx: 1, ErrID: "S2", CaseIdx: 0, Seed: 11, Failed: true, FailTickMs: 900, Master: []int64{-1, 520}, Slave: []int64{-1, -1}}),
		w.Claim(Claim{Experiment: "E1", Campaign: "c1", Shard: 2, Cases: []int{2}, Worker: "w1", GrantedMs: 1000, LeaseMs: 30000}),
		w.ShardDone(Claim{Experiment: "E1", Campaign: "c1", Shard: 2, Worker: "w2", Runs: 224}),
		w.Close(),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalRead checks the journal reader on arbitrary bytes and on
// cuts of a valid journal. Read never panics. A byte prefix of a
// journal that loads whole either fails or loads the leading lines of
// each kind, flagged Truncated only when the cut falls mid-line; every
// prefix of the multi-kind fixture is checked up front, and each fuzz
// input at the cut the fuzzer picks. Merge of two accepted logs accepts
// or refuses them in either order, and gives the same runs by key. The
// seed corpus is the package's journal fixtures, so plain `go test`
// runs it.
func FuzzJournalRead(f *testing.F) {
	multi := multiKindJournal(f)
	full, err := Read(bytes.NewReader(multi))
	if err != nil || full.Truncated {
		f.Fatalf("fixture journal does not load whole: %v", err)
	}
	for k := 0; k < len(multi); k++ {
		checkPrefix(f, multi, k, full)
	}

	shard := []byte(`{"kind":"header","experiment":"E1","seed":7,"grid":2,"total_runs":1}` + "\n" +
		`{"kind":"run","experiment":"E1","version":8,"err_idx":0,"case_idx":1,"seed":12,"failed":true}` + "\n")
	truncated := []byte(`{"kind":"header","experiment":"E1","seed":1}` + "\n" +
		`{"kind":"run","experiment":"E1","seed":2}` + "\n" +
		`{"kind":"run","experiment":"E1","ver`)
	malformed := []byte(`{"kind":"header","experiment":"E1"}` + "\n" +
		"this is not a journal\n" +
		`{"kind":"run","experiment":"E1"}` + "\n")
	f.Add(multi, shard, uint(len(multi)/2))
	f.Add(shard, multi[:len(multi)*2/3], uint(40))
	f.Add(truncated, malformed, uint(0))
	f.Add(malformed, truncated, uint(7))

	f.Fuzz(func(t *testing.T, a, b []byte, cut uint) {
		la, errA := Read(bytes.NewReader(a))
		lb, errB := Read(bytes.NewReader(b))
		if errA == nil && !la.Truncated {
			checkPrefix(t, a, int(cut%uint(len(a)+1)), la)
		}
		if errA == nil && errB == nil {
			checkMergeOrder(t, la, lb)
		}
	})
}

// checkPrefix reads the first k bytes of data, a journal that loads
// whole as full.
func checkPrefix(t testing.TB, data []byte, k int, full *Log) {
	l, err := Read(bytes.NewReader(data[:k]))
	if err != nil {
		return
	}
	if l.Truncated && k > 0 && data[k-1] == '\n' {
		t.Fatalf("cut at byte %d falls on a line boundary but the log is flagged truncated", k)
	}
	leading(t, k, "header", l.Headers, full.Headers)
	leading(t, k, "run", l.Runs, full.Runs)
	leading(t, k, "claim", l.Claims, full.Claims)
	leading(t, k, "probe", l.Probes, full.Probes)
	leading(t, k, "cost", l.Costs, full.Costs)
}

// leading fails unless got is a leading run of full.
func leading[T any](t testing.TB, k int, kind string, got, full []T) {
	t.Helper()
	if len(got) > len(full) {
		t.Fatalf("cut at byte %d loads %d %s lines, the whole journal %d", k, len(got), kind, len(full))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], full[i]) {
			t.Fatalf("cut at byte %d: %s line %d is %+v, the whole journal's is %+v", k, kind, i, got[i], full[i])
		}
	}
}

// checkMergeOrder merges a and b both ways round. A run journaled more
// than once is compared only when every copy agrees: the determinism
// contract makes a re-executed run's records identical, and for those
// the merge must not depend on the order.
func checkMergeOrder(t *testing.T, a, b *Log) {
	ab, errAB := Merge(a, b)
	ba, errBA := Merge(b, a)
	if (errAB == nil) != (errBA == nil) {
		t.Fatalf("Merge(a, b) = %v but Merge(b, a) = %v", errAB, errBA)
	}
	if errAB != nil {
		return
	}
	type runKey struct {
		exp string
		key Key
	}
	copies := make(map[runKey][]Record)
	for _, r := range append(append([]Record(nil), a.Runs...), b.Runs...) {
		k := runKey{r.Experiment, r.Key()}
		copies[k] = append(copies[k], r)
	}
	for k, recs := range copies {
		x, okX := ab.Lookup(k.exp)[k.key]
		y, okY := ba.Lookup(k.exp)[k.key]
		if !okX || !okY {
			t.Fatalf("run %+v lost by a merge (a,b: %v; b,a: %v)", k, okX, okY)
		}
		agree := true
		for _, r := range recs[1:] {
			agree = agree && reflect.DeepEqual(r, recs[0])
		}
		if agree && !reflect.DeepEqual(x, y) {
			t.Fatalf("run %+v merges to %+v in one order and %+v in the other", k, x, y)
		}
	}
}
