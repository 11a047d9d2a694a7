package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// refs holds the reference digests every op's output is checked
// against. They were computed from the code at the commit that added
// the benchmark, whose engines the repository's equivalence suite pins
// byte-identical to the literal FIC3 protocol; `perfbench --write-refs`
// recomputes them (and must only be run when a change is meant to alter
// the tables).
type refs struct {
	// CampaignSeeds are the campaign seeds a benchmark seed selects
	// from: seed mod len picks one. 2000 is fic's default.
	CampaignSeeds []int64 `json:"campaign_seeds"`
	// PaperAll and Census map a campaign seed to the SHA-256 of the
	// rendered text tables of the measured shard.
	PaperAll map[string]string `json:"paper_all"`
	Census   map[string]string `json:"census"`
	// OptimizeE1 maps a campaign seed to the SHA-256 of the timing-free
	// fields of every Score of the full E1 lattice sweep.
	OptimizeE1 map[string]string `json:"optimize_e1"`
}

func loadRefs(path string) (*refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	var rf refs
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rf.CampaignSeeds) == 0 {
		return nil, fmt.Errorf("%s lists no campaign seeds", path)
	}
	return &rf, nil
}

// campaignSeed maps a benchmark seed to the campaign seed its inputs
// are generated under.
func (rf *refs) campaignSeed(seed int64) int64 {
	n := int64(len(rf.CampaignSeeds))
	return rf.CampaignSeeds[((seed%n)+n)%n]
}

// key renders a campaign seed as a JSON object key.
func key(cs int64) string { return strconv.FormatInt(cs, 10) }

// gridEdge is the paper's 5x5 test-case grid.
const gridEdge = 5

// shard is paper-all's test cases: one per mass row and one
// per velocity column of the grid — a transversal of its Latin square,
// case (i, (i+1) mod 5) — so light and heavy, slow and fast arrestments
// are all in it. Its summed arrestment energy (Σ m·v²) is within 1% of
// a fifth of the full grid's, so its cost per run is close to the full
// protocol's. Every seed runs it: the five transversals' energies differ
// by up to 18%, so varying the shard with the seed would vary the work.
var shard = func() []int {
	out := make([]int, gridEdge)
	for i := range out {
		out[i] = i*gridEdge + (i+1)%gridEdge
	}
	return out
}()

// censusCases is the census workload's test cases: two of shard's,
// cases 1 and 13, the lightest slow arrestment and the middle mass at a
// fast velocity. The census costs 6.9k runs/s on them and 7.0k on all of
// shard (2 workers, 2-core x86-64 container), and a pass over two cases
// takes under 4 s, so a run fits several passes over the same work to
// take the median of.
var censusCases = []int{shard[0], shard[2]}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// generateRefs recomputes every reference digest and writes refs.json.
func generateRefs(path, dir string) error {
	rf := &refs{
		CampaignSeeds: []int64{2000, 2001, 2002, 2003},
		PaperAll:      map[string]string{},
		Census:        map[string]string{},
		OptimizeE1:    map[string]string{},
	}
	for _, cs := range rf.CampaignSeeds {
		out, err := paperAllShard(cs, shard, &passClock{}, nil)
		if err != nil {
			return err
		}
		rf.PaperAll[key(cs)] = digest(out.tables)
		fmt.Fprintf(os.Stderr, "paper-all seed %d: %s\n", cs, digest(out.tables))

		cen, err := censusShard(cs, censusCases, dir, &passClock{}, nil)
		if err != nil {
			return err
		}
		rf.Census[key(cs)] = digest(cen.tables)
		fmt.Fprintf(os.Stderr, "census seed %d: %s\n", cs, digest(cen.tables))

		cost, _, err := calibrateE1(cs, nil)
		if err != nil {
			return err
		}
		sw, err := sweepE1(cs, cost, nil)
		if err != nil {
			return err
		}
		rf.OptimizeE1[key(cs)] = digest(sw.scores)
		fmt.Fprintf(os.Stderr, "optimize-e1 seed %d: %s\n", cs, digest(sw.scores))
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
