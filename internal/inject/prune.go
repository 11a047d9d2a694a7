package inject

import (
	"fmt"

	"easig/internal/target"
)

// pruner is the liveness layer shared by PruneRunner, MemoRunner and
// the optimizer's Probe: a snapshot Engine plus the def/use liveness
// map of its test case. An error whose byte the map proves dead at
// every injection time is provably benign (see the soundness argument
// on Liveness), so its results are read off the case's full-window
// nominal profile with zero simulation. Everything else is simulated on
// the engine. The runners differ only in when the map arrives and in
// what sits between the pruner and the engine; the probe differs in
// how it projects the record.
type pruner struct {
	eng   *Engine
	live  *Liveness
	stats RunnerStats
}

// Liveness exposes the liveness map; nil until the full profile is in.
func (p *pruner) Liveness() *Liveness { return p.live }

// Stats implements StatsReporter. Simulated counts the errors the
// wrapped engine actually profiled; the one nominal liveness profile is
// not counted as an error.
func (p *pruner) Stats() RunnerStats { return p.stats }

// profile runs the nominal liveness profile on the runner's own engine.
func (p *pruner) profile() error {
	live := NewLiveness(p.eng.mem.Regions())
	if err := p.eng.ProfileNominal(live, live.MarkInjection); err != nil {
		return err
	}
	p.live = live
	return nil
}

// arm installs a shared CaseProfile's full stage: its liveness map, and
// the nominal profile DeriveNominal reads.
func (p *pruner) arm(cp *CaseProfile) error {
	if cp.live == nil || cp.nominal == nil {
		return fmt.Errorf("inject: pruning needs the full profile stage (ProfileCache.Get with full=true)")
	}
	p.live = cp.live
	p.eng.nominal = cp.nominal
	return nil
}

// prunes reports whether the liveness map proves err's byte dead at
// every injection time, and counts it as pruned if so. With no map yet
// nothing is pruned.
func (p *pruner) prunes(err Error) bool {
	if p.live == nil || p.live.Live(err.Addr) {
		return false
	}
	p.stats.Pruned++
	return true
}

// servePruned derives err's results from the nominal profile when the
// liveness map proves its byte dead, and reports whether it did.
func (p *pruner) servePruned(err Error, versions []target.Version, out []RunResult) (bool, error) {
	if !p.prunes(err) {
		return false, nil
	}
	for i, v := range versions {
		res, derr := p.eng.DeriveNominal(v)
		if derr != nil {
			return false, derr
		}
		out[i] = res
	}
	return true, nil
}

// serveSimulated serves err on the wrapped engine.
func (p *pruner) serveSimulated(err Error, versions []target.Version, out []RunResult) error {
	if rerr := p.eng.RunError(err, versions, out); rerr != nil {
		return rerr
	}
	p.stats.Simulated++
	return nil
}

// PruneRunner is the default detection-only Runner (ModePrune): the
// snapshot Engine with liveness pruning on top and no outcome memo.
//
// It never makes a case's first result wait for the full-window nominal
// profile, a fault-free simulation of the whole observation window
// that costs several error runs (an error run stops early once its
// outcome is decided; the profile cannot). The first RunError
// is simulated on the plain engine; the second fetches the full
// profile and from then on dead-byte errors are pruned. In a campaign
// the fetch goes through the shared ProfileCache, so the profile is
// computed once per case however many workers ask. A runner built by
// NewPruneRunner profiles its own engine instead.
//
// Which errors are pruned therefore depends on how many runners served
// a case first, and the Simulated/Pruned split with it; the results do
// not, since a pruned error's derived results equal its simulated ones.
// A PruneRunner is not safe for concurrent use.
type PruneRunner struct {
	pruner
	// full fetches the case's full profile stage; nil means profile
	// the runner's own engine.
	full func() (*CaseProfile, error)
}

// NewPruneRunner builds a self-contained prune runner for one test case
// described by cfg. Like NewEngine, it requires detection-only runs;
// cfg.Error and cfg.Version are ignored.
func NewPruneRunner(cfg RunConfig) (*PruneRunner, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &PruneRunner{pruner: pruner{eng: eng}}, nil
}

// NewPruneRunnerFromProfile builds a prune runner on a shared profile's
// prefix stage. full is called once, on the runner's second RunError,
// and must return the same case's profile with its full stage (a
// ProfileCache.Get with full=true).
func NewPruneRunnerFromProfile(p *CaseProfile, full func() (*CaseProfile, error)) (*PruneRunner, error) {
	eng, err := NewEngineFromProfile(p)
	if err != nil {
		return nil, err
	}
	return &PruneRunner{pruner: pruner{eng: eng}, full: full}, nil
}

// RunError implements Runner.
func (r *PruneRunner) RunError(err Error, versions []target.Version, out []RunResult) error {
	if len(out) != len(versions) {
		return fmt.Errorf("inject: prune runner needs len(out)=%d, got %d", len(versions), len(out))
	}
	if r.live == nil && r.stats.Errors > 0 {
		if perr := r.loadFull(); perr != nil {
			return perr
		}
	}
	r.stats.Errors++
	if ok, perr := r.servePruned(err, versions, out); ok || perr != nil {
		return perr
	}
	return r.serveSimulated(err, versions, out)
}

// loadFull installs the full profile stage, fetched or self-computed.
func (r *PruneRunner) loadFull() error {
	if r.full == nil {
		return r.profile()
	}
	cp, err := r.full()
	if err != nil {
		return err
	}
	return r.arm(cp)
}
