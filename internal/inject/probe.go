package inject

import (
	"fmt"

	"easig/internal/physics"
	"easig/internal/target"
)

// This file is the optimizer's measurement primitive: a projection of
// the campaign Engine's record onto the per-node, per-assertion
// first-violation matrix from which internal/optimize derives the
// outcome of EVERY configuration of the lattice — all 2^7 assertion
// subsets × {master, slave, both} — with zero additional simulation
// (OPTIMIZER.md "Subset derivation").
//
// The campaign Engine records the master node only, because the
// paper's Tables 7-9 score master builds. A configuration lattice that
// places assertions on the slave needs the slave's violation stream
// too: faults are injected into MASTER memory, and the slave can only
// see corruption that propagates over the set-point link, so its
// first-violation times are genuinely different data. A Probe therefore
// runs on a probe engine: the same Engine, serving errors through the
// same simulate kernel, with BOTH nodes on the all-assertions build and
// a first-violation recorder on each.

// EAProfile is one error's probe readout: for each node, each
// executable assertion's first-violation time (-1 when the assertion
// never fired), plus the plant's failure verdict. A configuration
// (mask, nodes) detects the error iff some enabled (node, assertion)
// slot is >= 0, and its first detection is the minimum such time —
// exactly the projection Engine.deriveFrom applies per Version, which
// is why one probe run scores the whole lattice.
type EAProfile struct {
	// Master[k] and Slave[k] are the first-violation times of EA k+1 on
	// that node, -1 when it never fired.
	Master [target.NumEAs]int64
	Slave  [target.NumEAs]int64
	// Failed reports a violated arrestment constraint; FailTickMs is the
	// tick index at which it latched (the engine's failIter clock, the
	// same clock as the violation times).
	Failed     bool
	FailTickMs int64
}

// Probe profiles the errors of one (test case, injection schedule) into
// EAProfiles. A snapshot-mode probe is the shared pruner with no
// liveness map: every error is simulated on its probe engine. A
// memo-mode probe arms the case's full profile, so errors in dead bytes
// are read off the nominal profile instead; "memo" names the pruning
// probe (the name is in optimizer journal headers), and probes keep no
// outcome memo. A literal-mode probe runs every error from time zero
// over the FULL observation window on a fresh probe engine — the
// reference semantics the probe equivalence tests pin the fast modes
// against.
//
// Probe runs are detection-only by construction (core.NoRecovery on
// both nodes): recovery acts only on violations, so the trajectory up
// to any FIRST violation — all a probe records — is recovery-invariant
// (OPTIMIZER.md "Recovery invariance"). A Probe is not safe for
// concurrent use; each sweep worker owns one.
type Probe struct {
	pruner
	// literal is the literal probe's run configuration; nil in the fast
	// modes, whose engine holds it.
	literal *RunConfig
}

// ProbeMode maps ModeAuto to the probe sweep's default, memo — liveness
// pruning is what makes a full-lattice census over the exhaustive fault
// space affordable, and the probe equivalence tests pin memo-mode
// profiles byte-identical to literal ones. Exported so the optimizer
// stamps the resolved mode into its journal header (the resume mode
// check needs the same resolution on both sides).
func ProbeMode(mode Mode) Mode {
	if mode == ModeAuto {
		return ModeMemo
	}
	return mode
}

// resolveProbeMode applies ProbeMode and the probe's detection-only
// precondition. Probes have no prune mode: a sweep shares one full
// profile per case from the start, so memo is the pruning probe.
func resolveProbeMode(mode Mode, cfg RunConfig) (Mode, error) {
	if !detectionOnly(cfg.Recovery) {
		return mode, fmt.Errorf("inject: probe requires detection-only runs (core.NoRecovery), got %T", cfg.Recovery)
	}
	if mode == ModePrune {
		return mode, fmt.Errorf("inject: probe engine must be auto, literal, snapshot or memo, not %s", mode)
	}
	return ProbeMode(mode), nil
}

// NewProbe builds a self-contained probe for one (test case, injection
// schedule) described by cfg. cfg.Error and cfg.Version are ignored:
// the probe always runs the all-assertions build on both nodes and the
// errors arrive per ProfileError call. Snapshot and memo modes compute
// their own CaseProfile; sweeps that share profiles across workers use
// NewProbeFromProfile instead.
func NewProbe(mode Mode, cfg RunConfig) (*Probe, error) {
	resolved, err := resolveProbeMode(mode, cfg)
	if err != nil {
		return nil, err
	}
	if resolved == ModeLiteral {
		return &Probe{literal: &cfg}, nil
	}
	e := &profileEntry{}
	if err := e.computePrefix(cfg); err != nil {
		return nil, err
	}
	if resolved == ModeMemo {
		if err := e.computeFull(); err != nil {
			return nil, err
		}
	}
	return NewProbeFromProfile(resolved, e.p)
}

// NewProbeFromProfile builds a probe from a shared CaseProfile, the way
// the optimizer's sweep workers do: a probe engine fast-forwarded by
// restoring the shared snapshot (the snapshot captures complete system
// state including the slave node, so it restores cleanly onto a
// differently-sinked system). Memo mode requires the profile's full
// stage (liveness map + nominal profile).
//
// The profile's prefix must be detection-free on the master (checked
// here against the recorded prefix streams) and on the slave (the §3.4
// nominal gate proves fault-free runs detection-free on BOTH nodes —
// RunNominal wires both sinks — and the prefix is a fault-free run):
// only then is everything the probe's post-restore recorders hold the
// complete violation history of the run.
func NewProbeFromProfile(mode Mode, p *CaseProfile) (*Probe, error) {
	resolved, err := resolveProbeMode(mode, p.cfg)
	if err != nil {
		return nil, err
	}
	if resolved == ModeLiteral {
		cfg := p.cfg
		return &Probe{literal: &cfg}, nil
	}
	for k := range p.prefixEA {
		if len(p.prefixEA[k].times) > 0 {
			return nil, fmt.Errorf("inject: probe needs a detection-free nominal prefix, but EA%d fired at %d ms before the first injection", k+1, p.prefixEA[k].times[0])
		}
	}
	eng, err := newEngineFromProfile(p, true)
	if err != nil {
		return nil, err
	}
	pr := &Probe{pruner: pruner{eng: eng}}
	if resolved == ModeMemo {
		if err := pr.arm(p); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// ProfileError profiles one error of the probe's test case into its
// dual-node EAProfile.
func (p *Probe) ProfileError(err Error) (EAProfile, error) {
	p.stats.Errors++
	if p.literal != nil {
		return p.profileLiteral(err)
	}
	if p.prunes(err) {
		// Provably benign: the trajectory is the nominal one, which the
		// §3.4 nominal gate proves detection-free on the slave as well.
		np := p.eng.nominal
		return projectProbe(&np.ea, nil, np.failure, np.failed), nil
	}
	if serr := p.eng.simulate(err); serr != nil {
		return EAProfile{}, serr
	}
	p.stats.Simulated++
	return p.eng.probeProfile(), nil
}

// profileLiteral serves one error from a fresh probe engine, simulated
// from time zero over the full observation window.
func (p *Probe) profileLiteral(err Error) (EAProfile, error) {
	e, serr := newEngineShell(*p.literal, true)
	if serr != nil {
		return EAProfile{}, serr
	}
	pol := e.cfg.Policy
	for ms := int64(0); ms < e.cfg.ObservationMs; ms++ {
		if ms >= pol.StartMs && (ms-pol.StartMs)%pol.PeriodMs == 0 {
			if aerr := err.Apply(e.mem); aerr != nil {
				return EAProfile{}, fmt.Errorf("inject: applying %v: %w", err, aerr)
			}
		}
		e.sys.StepMs()
	}
	p.stats.Simulated++
	return e.probeProfile(), nil
}

// probeProfile projects a probe engine's record and plant verdict onto
// an EAProfile.
func (e *Engine) probeProfile() EAProfile {
	failure, failed := e.sys.Env().Failure()
	return projectProbe(&e.rec.ea, &e.slave.ea, failure, failed)
}

// projectProbe reads an EAProfile off per-(node, EA) violation
// streams: each stream's first violation time, -1 for an empty stream
// or an absent (nil) node, plus the failure verdict on the violation
// clock.
func projectProbe(master, slave *[target.NumEAs]eaStream, failure physics.Failure, failed bool) EAProfile {
	var prof EAProfile
	for k := range prof.Master {
		prof.Master[k], prof.Slave[k] = -1, -1
		if len(master[k].times) > 0 {
			prof.Master[k] = master[k].times[0]
		}
		if slave != nil && len(slave[k].times) > 0 {
			prof.Slave[k] = slave[k].times[0]
		}
	}
	if failed {
		prof.Failed = true
		prof.FailTickMs = failure.TimeMs - 1
	}
	return prof
}
