package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataplane"
	"repro/internal/replay"
	"repro/internal/resilient"
	"repro/internal/simtime"
)

// check is one correctness assertion on a run's outputs. A failed check
// is a failed operation in the result and a non-zero exit.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...interface{}) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// fingerprint is the seed-determined outcome of a run: counts that do
// not depend on scheduling or on how fast the machine is. For seed 42 it
// is compared with the committed golden file; two runs of one seed must
// agree on it anywhere.
type fingerprint struct {
	Records        uint64 `json:"records"`
	RTTSamples     uint64 `json:"rtt_samples"`
	LossCount      uint64 `json:"loss_count"`
	AliasedPackets uint64 `json:"aliased_packets"`
	Evictions      uint64 `json:"evictions"`
	ActiveFlows    int    `json:"active_flows"`
	ReportsEmitted uint64 `json:"reports_emitted"`
	PreloadedDocs  int    `json:"preloaded_docs,omitempty"`
}

//go:embed golden/*.json
var goldenFS embed.FS

// goldenSeed is the only seed with committed fingerprints; other seeds
// are checked against the invariants alone.
const goldenSeed = 42

// goldenFile holds one workload's fingerprints, keyed by run shape
// ("s6-t0" is --seconds 6 --trace 0).
type goldenFile map[string]fingerprint

func goldenKey(seconds int, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("s%d-t%d", seconds, t)
}

func loadGolden(workload string) goldenFile {
	g := goldenFile{}
	if b, err := goldenFS.ReadFile("golden/" + workload + ".json"); err == nil {
		_ = json.Unmarshal(b, &g) // a malformed file is reported as a missing fingerprint
	}
	return g
}

// checkGolden compares fp with the committed fingerprint for this run
// shape, if there is one.
func checkGolden(workload string, seed uint64, seconds int, traced bool, fp fingerprint) []check {
	if seed != goldenSeed {
		return nil
	}
	want, ok := loadGolden(workload)[goldenKey(seconds, traced)]
	if !ok {
		return nil
	}
	return []check{checkf("golden_fingerprint", fp == want, "got %+v, golden %+v", fp, want)}
}

// writeGolden records fp as the golden fingerprint of this run shape.
func writeGolden(dir, workload string, seconds int, traced bool, fp fingerprint) error {
	g := goldenFile{}
	path := filepath.Join(dir, workload+".json")
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("golden: %s: %w", path, err)
		}
	}
	g[goldenKey(seconds, traced)] = fp
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ladderChecks asserts the shipper's degradation ladder was never used:
// everything emitted was shipped on the first attempt over the live
// connection.
func ladderChecks(who string, st resilient.Stats, fallbackWrites uint64) []check {
	return []check{
		checkf(who+"emitted_eq_shipped", st.Emitted == st.Shipped, "%s", st),
		checkf(who+"ladder_unused",
			st.Dropped == 0 && st.Retried == 0 && st.Spilled == 0 && st.Fallback == 0 &&
				st.Replayed == 0 && st.Queued == 0 && fallbackWrites == 0,
			"%s fallback_writes=%d", st, fallbackWrites),
	}
}

// check asserts everything a correct ingest run must satisfy.
func (p *ingestPass) check(out *ingestOutcome) []check {
	m := p.m
	emitted := m.emitted.Load()
	cs := ladderChecks("shipper_", m.shipper.Stats(), m.fallback.n.Load())
	docs := storeDocs(p.arch.store)
	ps := p.arch.pipeline.Stats()
	st := out.stats
	cs = append(cs,
		checkf("store_docs_eq_emitted", uint64(docs) == emitted, "store holds %d documents, %d reports emitted", docs, emitted),
		checkf("pipeline_balanced", ps.Received == emitted && ps.Shipped == emitted && ps.Dropped == 0, "%+v, emitted %d", ps, emitted),
		checkf("input_errors_zero", p.arch.input.Errors() == 0, "%d undecodable lines", p.arch.input.Errors()),
		checkf("join_in_order", m.mismatches == 0 && p.arch.unattributed.Load() == 0,
			"%d documents out of order or altered, %d unattributed", m.mismatches, p.arch.unattributed.Load()),
		checkf("copies_eq_records", st.IngressCopies+st.EgressCopies == p.fed,
			"%d ingress + %d egress copies, %d records fed", st.IngressCopies, st.EgressCopies, p.fed),
		checkf("skipped_zero", st.SkippedPackets == 0, "%d skipped", st.SkippedPackets),
		checkf("reports_emitted", out.emitted > 0 || p.lastAt < uint64(2*simtime.Second), "no report in the timed phase"),
	)
	switch p.w.name {
	case "elephants", "elephants_2shard":
		cs = append(cs,
			checkf("alias_free", st.AliasedPackets == 0, "%d aliased packets", st.AliasedPackets),
			// A flow is announced at 1 MiB: 719 segments of 1460 B, which
			// with ACKs and egress copies is under 1100 of its records.
			checkf("all_flows_announced",
				uint64(p.cp.ActiveFlowCount()) == p.st.flowsOffered() || p.fed < 1100*p.st.flowsOffered(),
				"%d flows in the directory, want %d", p.cp.ActiveFlowCount(), p.st.flowsOffered()))
	case "mice":
		share := float64(st.AliasedPackets) / float64(st.IngressCopies)
		cs = append(cs,
			// The first packets fill the 2048-cell table; past a million
			// records they are under 1% and the share is the workload's.
			checkf("lean_tier_share", share >= 0.95 || p.fed < 1_000_000, "%.3f of ingress packets aliased, want >= 0.95", share),
			p.estimateCheck())
	}
	if p.prefixDone {
		cs = append(cs, p.shardCheck())
	}
	return cs
}

// estimateCheck is the sketch tier's contract on the mice workload: for
// 1000 sampled flows the two-tier estimate is never below what the
// generator sent.
func (p *ingestPass) estimateCheck() check {
	flows := p.st.sampleFlows(1000)
	truth := p.st.truth(p.fed, flows)
	under, checked := 0, 0
	first := ""
	for _, g := range flows {
		want, ok := truth[g]
		if !ok {
			continue // sampled from a generation the run ended before
		}
		checked++
		est := p.pipes.EstimateFlow(dataplane.KeyOf(synthTuple(g)))
		if est.Bytes < want {
			under++
			if first == "" {
				first = fmt.Sprintf("flow %d: estimate %d < sent %d", g, est.Bytes, want)
			}
		}
	}
	return checkf("estimate_never_undercounts", under == 0 && checked > 0, "%d of %d sampled flows undercounted (%s)", under, checked, first)
}

// shardCheck replays the first shardPrefixRecords records of the stream
// through one bare pipe and compares its counters with the merged
// snapshot the sharded run took at the same record.
func (p *ingestPass) shardCheck() check {
	one := dataplane.NewPipes(dataplane.Config{}, 1)
	src := p.w.source(p.seed, shardPrefixRecords).src
	ref := replay.Runner{Plane: one, Batch: frontSize}.Run(src).Stats
	// The collision diagnostics of the hashed eACK, queue-signature and
	// flow tables are properties of each pipe's own tables (two pipes
	// have twice the cells), not of the traffic; every measurement
	// counter must match exactly.
	got := p.prefix
	for _, s := range []*dataplane.Stats{&ref, &got} {
		s.EACKEvictions, s.QSigMismatches, s.SlotCollisions = 0, 0, 0
	}
	return checkf("sharded_stats_eq_single_pipe", ref == got,
		"first %d records: %d shards merged %+v, one pipe %+v", shardPrefixRecords, p.w.shards, got, ref)
}

func failedChecks(cs []check) int {
	n := 0
	for _, c := range cs {
		if !c.OK {
			n++
		}
	}
	return n
}
