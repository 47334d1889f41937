package experiments

import (
	"fmt"
	"testing"
)

// TestScaleSweep runs a CI-sized sweep (well past the 2048-cell exact
// tier, well short of the nightly 1M-flow point) at two seeds, on one
// pipe and on four, and requires every analytical guarantee to hold
// for every flow against the oracle: admitted flows bit-exact, sketch
// estimates never undercounting and overcounting within ⌈ε·N⌉ at the
// configured confidence, eviction folds lossless. The seed relabels the
// flows, so the audit must find each seed's own population: every flow
// on one tier or the other and some of them admitted.
func TestScaleSweep(t *testing.T) {
	for _, seed := range []uint64{42, 2026} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				t.Parallel()
				checkScaleSweep(t, RunScaleSweep(ScaleSweepConfig{
					FlowCounts: []int{5_000, 20_000}, PacketsPerFlow: 16, Shards: shards, Seed: seed,
				}))
			})
		}
	}
}

func checkScaleSweep(t *testing.T, res *ScaleSweepResult) {
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Pass() {
			t.Errorf("%d flows: guarantees violated: undercounts=%d exactMismatches=%d boundViolations=%d/%d foldErrors=%d",
				p.Flows, p.Undercounts, p.ExactMismatches, p.BoundViolations, p.BoundAllowance, p.FoldErrors)
		}
		// Both tiers must actually be exercised: the table is far
		// smaller than the population, so flows land on both sides of
		// the admission gate, aliasing is counted (not silent), and the
		// post-run aging sweep evicts the owners.
		if p.Admitted+p.Sketched != p.Flows || p.Admitted == 0 || p.Sketched == 0 {
			t.Errorf("%d flows: audit split admitted=%d sketched=%d, want every flow and both tiers", p.Flows, p.Admitted, p.Sketched)
		}
		if p.AliasedPackets == 0 {
			t.Errorf("%d flows: no aliased packets counted at %dx table overload", p.Flows, p.Flows/2048)
		}
		if p.Evictions == 0 {
			t.Errorf("%d flows: aging sweep evicted nothing", p.Flows)
		}
		if p.OracleLoss == 0 || p.ExactLoss+p.SketchLoss < p.OracleLoss {
			t.Errorf("%d flows: loss exact=%d sketch=%d, oracle %d: the tiers undercount it or it is zero",
				p.Flows, p.ExactLoss, p.SketchLoss, p.OracleLoss)
		}
	}
	// The memory story: the footprint is fixed while the population
	// grows, so bytes/flow must fall as flows rise.
	if a, b := res.Points[0], res.Points[1]; b.BytesPerFlow >= a.BytesPerFlow {
		t.Errorf("bytes/flow did not fall with scale: %.1f at %d flows vs %.1f at %d",
			a.BytesPerFlow, a.Flows, b.BytesPerFlow, b.Flows)
	}
	// Exact-tier memory is table-sized, not population-sized.
	if res.Points[0].ExactMemBytes != res.Points[1].ExactMemBytes {
		t.Errorf("exact-tier memory moved with flow count: %d vs %d",
			res.Points[0].ExactMemBytes, res.Points[1].ExactMemBytes)
	}
	if res.Points[0].LeanMemBytes == 0 {
		t.Error("lean tier reports zero memory")
	}
	if r := res.Render(); len(r) == 0 {
		t.Error("empty render")
	}
}
