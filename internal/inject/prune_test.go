package inject

import (
	"reflect"
	"testing"

	"easig/internal/target"
)

// TestPruneRunnerDefersProfile pins the prune runner's contract: a
// fresh runner serves its first error on the plain engine without
// computing the case's full-window profile, and a later dead-address
// error is pruned with the engine's exact results. Both constructors
// are covered: on a shared ProfileCache (the campaign path) and
// self-contained (NewRunner).
func TestPruneRunnerDefersProfile(t *testing.T) {
	cfg := profileTestConfig()
	versions := target.Versions()

	// An independent cache supplies the liveness map that picks the
	// dead-address error, so the runners' own caches stay untouched.
	ref, err := NewProfileCache().Get(0, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	var dead Error
	found := false
	for _, e := range BuildExhaustive() {
		if !ref.Live().Live(e.Addr) {
			dead, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("no dead address in the exhaustive fault space")
	}
	first := BuildE1()[0]

	type build struct {
		name    string
		runner  func() (*PruneRunner, error)
		profile func() *CaseProfile // the case's shared profile, nil when self-contained
	}
	cache := NewProfileCache()
	builds := []build{
		{
			name: "shared-profile",
			runner: func() (*PruneRunner, error) {
				p, err := cache.Get(0, cfg, false)
				if err != nil {
					return nil, err
				}
				return NewPruneRunnerFromProfile(p, func() (*CaseProfile, error) { return cache.Get(0, cfg, true) })
			},
			profile: func() *CaseProfile {
				p, err := cache.Get(0, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name:   "self-contained",
			runner: func() (*PruneRunner, error) { return NewPruneRunner(cfg) },
		},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			r, err := b.runner()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]RunResult, len(versions))
			want := make([]RunResult, len(versions))
			for i, e := range []Error{first, dead} {
				for k := range got {
					got[k], want[k] = RunResult{}, RunResult{}
				}
				before := r.Stats()
				if err := r.RunError(e, versions, got); err != nil {
					t.Fatal(err)
				}
				if err := eng.RunError(e, versions, want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: prune runner diverged from the engine\n got %+v\nwant %+v", e.ID, got, want)
				}
				st := r.Stats()
				switch i {
				case 0:
					if st.Simulated != before.Simulated+1 {
						t.Errorf("first error not simulated: %+v", st)
					}
					if r.Liveness() != nil {
						t.Error("runner holds a liveness map after its first error")
					}
					if b.profile != nil && b.profile().Live() != nil {
						t.Error("first error computed the case's full profile")
					}
				case 1:
					if st.Pruned != before.Pruned+1 {
						t.Errorf("dead-address error %s not pruned: %+v", e.ID, st)
					}
				}
			}
			if st := r.Stats(); st.Errors != 2 || st.Simulated+st.Pruned != st.Errors {
				t.Errorf("stats do not partition the error set: %+v", st)
			}
		})
	}
}
