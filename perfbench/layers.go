package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
	"easig/internal/memory"
	"easig/internal/optimize"
	"easig/internal/physics"
	"easig/internal/target"
)

// layerAcc accumulates the per-layer samples a traced workload's own
// op loop produces.
type layerAcc struct {
	util         []float64 // mean worker utilization per campaign call
	stolen       []float64 // stolen batches per campaign call
	collectShare []float64 // census: replay wall over live wall
	loadS        []float64 // census: journal.Load seconds per shard
	bytesPerRun  []float64 // census: journal bytes per record
	records      []journal.Record
	calibrateS   []float64
	scoreMs      []float64
}

// campaignLayers records a traced campaign shard's scheduling and
// journal figures.
func (r *run) campaignLayers(out shardOut) {
	if r.tr == nil {
		return
	}
	for _, m := range out.metrics {
		var u, st float64
		for _, w := range m.Workers {
			u += w.Utilization
			st += float64(w.Stolen)
		}
		if len(m.Workers) > 0 {
			r.acc.util = append(r.acc.util, u/float64(len(m.Workers)))
		}
		r.acc.stolen = append(r.acc.stolen, st)
	}
	if len(out.log) > 0 {
		r.acc.collectShare = append(r.acc.collectShare, secs(out.replay)/secs(out.live))
		r.acc.loadS = append(r.acc.loadS, secs(out.load))
		r.acc.bytesPerRun = append(r.acc.bytesPerRun, float64(out.bytes)/float64(len(out.log)))
		r.acc.records = out.log
	}
}

// streamLayers records a traced replay's sigmond figures.
func (r *run) streamLayers(out *replayOut) {
	if r.tr == nil {
		return
	}
	var lat []float64
	for _, d := range out.latencies {
		lat = append(lat, float64(d.Nanoseconds())/1e3)
	}
	_, p99 := tail(lat)
	var maxS, sum float64
	for _, sh := range out.metrics.PerShard {
		s := float64(sh.Samples)
		sum += s
		if s > maxS {
			maxS = s
		}
	}
	skew := 0.0
	if sum > 0 {
		skew = maxS / (sum / float64(len(out.metrics.PerShard)))
	}
	r.set("stream.ingest_ns_per_sample", out.ingestNs, "ns")
	r.set("stream.http_us_per_request", median(lat), "us")
	r.set("stream.request_p99_us", p99, "us")
	r.set("stream.shard_skew", skew, "ratio")
	r.set("stream.queue_depth_max", float64(out.queueMax), "count")
	r.set("stream.flush_ms", msOf(out.flush), "ms")
	r.set("stream.reported_p99_tick_ns", float64(out.metrics.P99TickLatencyNs), "ns")
	r.set("stream.dropped_samples", float64(out.metrics.DroppedSamples), "count")
}

// set records a per-layer metric unless the workload already did.
func (r *run) set(name string, v float64, unit string) {
	if _, ok := r.layer[name]; !ok {
		r.layer[name] = metric{v, unit}
	}
}

// layerSuite completes the traced run's per-layer metrics: the layers
// the workload exercised report the workload's own figures; the tick,
// error-run and probe decompositions always run; and layers the
// workload does not reach are measured on a small fixed input (a
// one-case census, a one-case lattice sweep, a one-second replay), so
// every traced run reports every per-layer metric.
func (r *run) layerSuite() error {
	r.set("bench.traced_ops_per_s", r.opsPerSec(), "1/s")
	if len(r.acc.records) == 0 {
		// No census ran: the journal and collection figures come from a
		// one-case census, the scheduling figures too unless the
		// workload ran campaigns of its own.
		own := r.acc
		out, err := censusShard(fixedSeed, []int{centerCase}, r.dir, &passClock{}, r.tr)
		if err != nil {
			return err
		}
		r.campaignLayers(out)
		if len(own.util) > 0 {
			r.acc.util, r.acc.stolen = own.util, own.stolen
		}
	}
	r.set("experiment.worker_utilization", mean(r.acc.util), "ratio")
	r.set("experiment.stolen_batches", mean(r.acc.stolen), "count")
	r.set("experiment.collect_share", median(r.acc.collectShare), "ratio")
	r.set("journal.load_s", median(r.acc.loadS), "s")
	r.set("journal.bytes_per_run", median(r.acc.bytesPerRun), "B")
	us, err := journalWrite(r.dir, r.acc.records, r.tr)
	if err != nil {
		return err
	}
	r.set("journal.write_us_per_record", us, "us")

	if len(r.acc.calibrateS) == 0 {
		if err := r.miniSweep(); err != nil {
			return err
		}
	}
	r.set("optimize.calibrate_s", median(r.acc.calibrateS), "s")
	r.set("optimize.score_ms", median(r.acc.scoreMs), "ms")

	if _, ok := r.layer["stream.shard_skew"]; !ok {
		out, _, err := sigmondReplay(r.seed, time.Second, r.tr)
		if err != nil {
			return err
		}
		r.streamLayers(out)
	}
	if err := r.tickDecomposition(); err != nil {
		return err
	}
	return r.errorRunDecomposition()
}

// fixedSeed and centerCase pin the suite's fixed inputs: fic's default
// campaign seed and the grid's center case (14 t at 55 m/s).
const (
	fixedSeed  = 2000
	centerCase = 12
)

// journalWrite writes records through a fresh journal.Writer and
// returns the time per record, Close (the drain to disk) included.
func journalWrite(dir string, recs []journal.Record, tr *tracer) (float64, error) {
	path := filepath.Join(dir, "write.jsonl")
	defer os.Remove(path)
	sp := tr.begin("journal.Writer")
	t0 := time.Now()
	w, err := journal.Create(path)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := w.Run(rec); err != nil {
			w.Close()
			return 0, err
		}
	}
	err = w.Close()
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(recs)), nil
}

// miniSweep measures the optimizer layer on a one-case E1 sweep.
func (r *run) miniSweep() error {
	cost, d, err := calibrateE1(fixedSeed, r.tr)
	if err != nil {
		return err
	}
	r.acc.calibrateS = append(r.acc.calibrateS, secs(d))
	var last time.Time
	opt := optimize.Options{Workers: workers(), Cost: &cost, Progress: func(journal.ProgressEvent) { last = time.Now() }}
	sp := r.tr.begin("optimize.Run")
	_, err = optimize.Run(optimize.Spec{Errors: optimize.ErrorsE1, Grid: 1, Seed: fixedSeed}, opt)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.acc.scoreMs = append(r.acc.scoreMs, msOf(time.Since(last)))
	return nil
}

// Tick decomposition sizes: blocks of tickBlock ticks from a
// mid-arrestment snapshot, tickReps rounds.
const (
	tickWarm  = 2000
	tickBlock = 1000
	tickReps  = 41
)

// countSink is a counting memory.AccessSink.
type countSink struct{ loads, stores int }

func (c *countSink) OnAccess(_ uint16, _ int, write bool) {
	if write {
		c.stores++
	} else {
		c.loads++
	}
}

// bench is a system with a mid-arrestment snapshot to restore blocks
// from.
type bench struct {
	sys *target.System
	st  target.SystemState
}

func newBench(master, slave target.Version) (*bench, error) {
	sys, err := target.NewSystem(target.SystemConfig{
		TestCase:     physics.Grid(gridEdge)[centerCase],
		Seed:         experiment.RunSeed(fixedSeed, centerCase),
		Version:      master,
		SlaveVersion: slave,
	})
	if err != nil {
		return nil, err
	}
	sys.RunMs(tickWarm)
	b := &bench{sys: sys}
	sys.Capture(&b.st)
	return b, nil
}

// block restores the snapshot and returns fn's time per call over one
// block of tickBlock calls.
func (b *bench) block(fn func()) (float64, error) {
	if err := b.sys.Restore(&b.st); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < tickBlock; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / tickBlock, nil
}

// accesses counts both nodes' memory loads and stores per tick over
// one block.
func (b *bench) accesses() (loads, stores float64, err error) {
	if err := b.sys.Restore(&b.st); err != nil {
		return 0, 0, err
	}
	var c countSink
	b.sys.Master().Memory().SetAccessSink(&c)
	b.sys.Slave().Memory().SetAccessSink(&c)
	b.sys.RunMs(tickBlock)
	b.sys.Master().Memory().SetAccessSink(nil)
	b.sys.Slave().Memory().SetAccessSink(nil)
	return float64(c.loads) / tickBlock, float64(c.stores) / tickBlock, nil
}

// sinkU16 keeps the Var16 loop's loads observable to the compiler.
var sinkU16 uint16

// part is one timed part of the tick decomposition: each call times
// one block and returns nanoseconds per unit.
type part struct {
	name string
	time func() (float64, error)
	xs   []float64
}

// tickDecomposition splits a 1 ms control cycle of the two-node system
// into physics, node software without assertions, Var16 memory traffic
// and assertion checks, and reports how far their sum misses the
// measured tick:
//
//	tick = physics + modules + memory(All) + Σ_k test_ns[k]·tests[k] + residual
//	modules = tick(None) − physics − memory(None)
//
// physics.step_ns is physics.Env.StepMs on the system's own plant;
// memory is Var16 Get/Set cost weighted by the counting sink's loads
// and stores; tests[k] is assertion k's calls per tick, counted as the
// extra loads (one s' load per Test) of a single-assertion build over
// the assertion-free one; test_ns[k] is core.Monitor.Test on the
// signal's recorded values through target.NewSignalMonitor.
//
// The parts are timed in interleaved rounds and each reports its median
// block, so host noise that slows one stretch of the measurement lands
// on every part alike instead of on whichever part ran then.
func (r *run) tickDecomposition() error {
	all, err := newBench(target.VersionAll, target.VersionAll)
	if err != nil {
		return err
	}
	none, err := newBench(target.VersionNone, target.VersionNone)
	if err != nil {
		return err
	}
	ldAll, stAll, err := all.accesses()
	if err != nil {
		return err
	}
	ldNone, stNone, err := none.accesses()
	if err != nil {
		return err
	}

	// The master's signal values over one block feed the stand-alone
	// monitors.
	if err := all.sys.Restore(&all.st); err != nil {
		return err
	}
	values := make([][tickBlock]int64, target.NumEAs)
	for i := 0; i < tickBlock; i++ {
		all.sys.StepMs()
		v := all.sys.Master().Vars()
		for k, x := range []memory.Var16{v.SetValue, v.IsValue, v.I, v.PulsCnt, v.MsSlotNbr, v.MsCnt, v.OutValue} {
			values[k][i] = int64(x.Get())
		}
	}
	tests := make([]float64, target.NumEAs)
	for k := range tests {
		one, err := newBench(target.Version(k+1), target.Version(k+1))
		if err != nil {
			return err
		}
		ld, _, err := one.accesses()
		if err != nil {
			return err
		}
		tests[k] = ld - ldNone
	}

	mem, err := memory.New(memory.RegionSpec{Name: "ram", Base: 0, Size: 64})
	if err != nil {
		return err
	}
	word := memory.MustBind(mem, "x", 0)
	timeLoop := func(fn func(i int)) (float64, error) {
		const n = 20 * tickBlock
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / n, nil
	}
	parts := []*part{
		{name: "target.tick_ns", time: func() (float64, error) { return all.block(all.sys.StepMs) }},
		{name: "target.tick_noassert_ns", time: func() (float64, error) { return none.block(none.sys.StepMs) }},
		{name: "physics.step_ns", time: func() (float64, error) { return all.block(all.sys.Env().StepMs) }},
		{name: "memory.var16_get_ns", time: func() (float64, error) {
			var acc uint16
			ns, err := timeLoop(func(int) { acc += word.Get() })
			sinkU16 = acc
			return ns, err
		}},
		{name: "memory.var16_set_ns", time: func() (float64, error) { return timeLoop(func(i int) { word.Set(uint16(i)) }) }},
	}
	names := target.SignalNames()
	for k := range names {
		m, err := target.NewSignalMonitor(k)
		if err != nil {
			return err
		}
		vals := &values[k]
		parts = append(parts, &part{name: "core.monitor_test_ns." + names[k], time: func() (float64, error) {
			m.Reset()
			t0 := time.Now()
			for i, v := range vals {
				m.Test(int64(i), v)
			}
			return float64(time.Since(t0).Nanoseconds()) / tickBlock, nil
		}})
	}
	for rep := 0; rep < tickReps; rep++ {
		for _, p := range parts {
			sp := r.tr.begin(p.name)
			ns, err := p.time()
			r.tr.end(sp)
			if err != nil {
				return err
			}
			p.xs = append(p.xs, ns)
		}
	}
	med := map[string]float64{}
	for _, p := range parts {
		med[p.name] = median(p.xs)
		r.set(p.name, med[p.name], "ns")
	}

	tick, tickNone, phys := med["target.tick_ns"], med["target.tick_noassert_ns"], med["physics.step_ns"]
	get, set := med["memory.var16_get_ns"], med["memory.var16_set_ns"]
	asserts := 0.0
	for k := range names {
		asserts += med["core.monitor_test_ns."+names[k]] * tests[k]
	}
	memAll := get*ldAll + set*stAll
	memNone := get*ldNone + set*stNone
	modules := tickNone - phys - memNone
	residual := tick - (phys + modules + memAll + asserts)
	r.set("memory.accesses_per_tick", ldAll+stAll, "count")
	r.set("target.assert_share", (tick-tickNone)/tick, "ratio")
	r.set("target.tick_residual_pct", 100*residual/tick, "%")
	r.notes = append(r.notes, fmt.Sprintf(
		"tick %.1f ns = physics %.1f + modules %.1f + memory %.1f (%.1f loads, %.1f stores) + assertions %.1f + residual %.1f (%.1f%%; tolerance ±%.0f%%)",
		tick, phys, modules, memAll, ldAll, stAll, asserts, residual, 100*residual/tick, tickTolerancePct))
	return nil
}

// tickTolerancePct is the stated tolerance of the tick decomposition:
// the parts must add up to target.tick_ns within this share.
const tickTolerancePct = 25.0

// errorRunDecomposition times the error-run layers on the center case:
// snapshot capture and restore, the per-case profile build, one
// Runner.RunError per error classified by which RunnerStats counter
// moved, and one Probe.ProfileError per E1 error.
func (r *run) errorRunDecomposition() error {
	b, err := newBench(target.VersionAll, target.VersionAll)
	if err != nil {
		return err
	}
	var caps, ress []float64
	var st target.SystemState
	for rep := 0; rep < 2000; rep++ {
		t0 := time.Now()
		b.sys.Capture(&st)
		caps = append(caps, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		if err := b.sys.Restore(&b.st); err != nil {
			return err
		}
		ress = append(ress, float64(time.Since(t0).Nanoseconds()))
	}
	r.set("target.capture_ns", median(caps), "ns")
	r.set("target.restore_ns", median(ress), "ns")

	cfg := inject.RunConfig{
		TestCase: physics.Grid(gridEdge)[centerCase],
		Seed:     experiment.RunSeed(fixedSeed, centerCase),
	}
	var builds []float64
	var prof *inject.CaseProfile
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		sp := r.tr.begin("inject.ProfileCache.Get")
		p, err := inject.NewProfileCache().Get(centerCase, cfg, true)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		builds = append(builds, msOf(time.Since(t0)))
		prof = p
	}
	r.set("inject.profile_build_ms", median(builds), "ms")

	runner, err := inject.NewMemoRunnerFromProfile(prof, nil)
	if err != nil {
		return err
	}
	var errs []inject.Error
	for i, e := range inject.BuildExhaustive() {
		if i%5 == 0 {
			errs = append(errs, e)
		}
	}
	errs = append(errs, inject.BuildE2(inject.DefaultE2Spec(), fixedSeed)...)
	versions := []target.Version{target.VersionAll}
	out := make([]inject.RunResult, 1)
	byClass := map[string][]float64{}
	var repeat []inject.Error
	runOne := func(e inject.Error) (string, error) {
		before := runner.Stats()
		sp := r.tr.begin("inject.Runner.RunError")
		t0 := time.Now()
		err := runner.RunError(e, versions, out)
		d := time.Since(t0)
		r.tr.end(sp)
		out[0] = inject.RunResult{}
		if err != nil {
			return "", err
		}
		after := runner.Stats()
		class := "simulated"
		switch {
		case after.Pruned > before.Pruned:
			class = "pruned"
		case after.MemoHits > before.MemoHits:
			class = "memo_hit"
		}
		byClass[class] = append(byClass[class], float64(d.Nanoseconds())/1e3)
		return class, nil
	}
	for _, e := range errs {
		class, err := runOne(e)
		if err != nil {
			return err
		}
		if class == "simulated" {
			repeat = append(repeat, e)
		}
	}
	first := runner.Stats()
	// A second draw of every simulated error is served from the memo:
	// the repeated-draw path the E2 sample and the sweep rely on.
	for _, e := range repeat {
		if _, err := runOne(e); err != nil {
			return err
		}
	}
	for _, class := range []string{"simulated", "pruned", "memo_hit"} {
		r.setTiming("inject.run_us."+class, byClass[class], "us")
	}
	r.set("inject.simulated", float64(first.Simulated), "count")
	r.set("inject.prune_rate", first.PruneRate(), "ratio")
	r.set("inject.memo_hit_rate", first.MemoHitRate(), "ratio")

	probe, err := inject.NewProbeFromProfile(inject.ModeMemo, prof)
	if err != nil {
		return err
	}
	var probes []float64
	for _, e := range inject.BuildE1() {
		sp := r.tr.begin("inject.Probe.ProfileError")
		t0 := time.Now()
		_, err := probe.ProfileError(e)
		d := time.Since(t0)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		probes = append(probes, float64(d.Nanoseconds())/1e3)
	}
	r.setTiming("inject.probe_us", probes, "us")
	return nil
}

// setTiming reports a timing as its median, its tail (the highest
// percentile with at least ten samples beyond it) and its sample count.
func (r *run) setTiming(name string, xs []float64, unit string) {
	pct, v := tail(xs)
	q1, q3 := quartiles(xs)
	r.set(name, median(xs), unit)
	r.set(name+".tail", v, unit)
	r.set(name+".n", float64(len(xs)), "count")
	r.notes = append(r.notes, fmt.Sprintf("%s: n=%d, median %.3f, quartiles %.3f..%.3f, tail p%g %.3f %s",
		name, len(xs), median(xs), q1, q3, pct, v, unit))
}
