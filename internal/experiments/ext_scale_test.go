package experiments

import "testing"

// TestScaleSweep runs a CI-sized sweep (well past the 2048-cell exact
// tier, well short of the nightly 1M-flow point) and requires every
// analytical guarantee to hold: admitted flows bit-exact, sketch
// estimates never undercounting and overcounting within ⌈ε·N⌉ at the
// configured confidence, eviction folds lossless.
func TestScaleSweep(t *testing.T) {
	t.Parallel()
	res := RunScaleSweep(ScaleSweepConfig{
		FlowCounts:     []int{5_000, 20_000},
		PacketsPerFlow: 16,
		SampleFlows:    64,
	})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Pass() {
			t.Errorf("%d flows: guarantees violated: undercounts=%d exactMismatches=%d boundViolations=%d/%d foldErrors=%d",
				p.Flows, p.Undercounts, p.ExactMismatches, p.BoundViolations, p.BoundAllowance, p.FoldErrors)
		}
		// Both tiers must actually be exercised: the table is far
		// smaller than the population, so sampled flows land on both
		// sides of the admission gate, aliasing is counted (not
		// silent), and the post-run aging sweep evicts the owners.
		if p.Admitted == 0 || p.Sketched == 0 {
			t.Errorf("%d flows: sample split admitted=%d sketched=%d, want both tiers hit", p.Flows, p.Admitted, p.Sketched)
		}
		if p.AliasedPackets == 0 {
			t.Errorf("%d flows: no aliased packets counted at %dx table overload", p.Flows, p.Flows/2048)
		}
		if p.Evictions == 0 {
			t.Errorf("%d flows: aging sweep evicted nothing", p.Flows)
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

// TestScaleSweepSharded pins the sweep's guarantees on the multi-pipe
// pipeline: admission and the sketches are per-shard, the audit reads
// the merged view.
func TestScaleSweepSharded(t *testing.T) {
	t.Parallel()
	res := RunScaleSweep(ScaleSweepConfig{
		FlowCounts:     []int{10_000},
		PacketsPerFlow: 16,
		SampleFlows:    48,
		Shards:         4,
	})
	p := res.Points[0]
	if !p.Pass() {
		t.Fatalf("sharded sweep violated guarantees: undercounts=%d exactMismatches=%d boundViolations=%d/%d foldErrors=%d",
			p.Undercounts, p.ExactMismatches, p.BoundViolations, p.BoundAllowance, p.FoldErrors)
	}
	if p.Admitted == 0 || p.Sketched == 0 {
		t.Fatalf("sample split admitted=%d sketched=%d, want both tiers hit", p.Admitted, p.Sketched)
	}
}
