package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/faultnet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/psarchiver"
	"repro/internal/replay"
	"repro/internal/resilient"
	"repro/internal/simtime"
)

// This file implements the fleet federation experiment (DESIGN.md
// §5.9): N simulated switches across multiple sites — each its own
// dataplane.Pipes fed by the replay front-end, its own identity-
// stamping report path and resilient shipper — shipping into one
// shared archiver. The run asserts the fleet-wide exact-accounting
// invariant member by member,
//
//	archived(m) == emitted(m) − dropped(m) − fallback(m)   for every m
//	Σ archived(m) == pipeline received == store documents
//
// and runs a member-kill chaos phase: one switch's archiver channel is
// partitioned mid-run, the switch keeps measuring and spools its
// reports to disk, and when the partition heals the spool replays into
// the archiver, after which the accounting still balances exactly and
// the Witness is byte-stable at a fixed seed.

// FedSite describes one site of the fleet topology.
type FedSite struct {
	// Name is the site identity (stamped into reports as site_id).
	Name string
	// Switches is the number of tap points at this site. Switches of
	// one site observe the same flow population — they model tap
	// points along the same site path, so the shared archiver can join
	// per-flow observations across them.
	Switches int
}

// FederationConfig parameterises the federation scenario.
type FederationConfig struct {
	// Sites is the fleet topology. Default: 2 sites × 2 switches (the
	// CI-sized fleet). FederationPaper selects the 10-switch fleet.
	Sites []FedSite
	// FlowsPerSite is each site's concurrent flow population; sites
	// are pairwise disjoint, so the fleet total is len(Sites) ×
	// FlowsPerSite. Default 2000.
	FlowsPerSite int
	// PacketsPerFlow is the average TAP records per flow over the whole
	// run (default 8).
	PacketsPerFlow int
	// SampleFlows is how many flows per member get per-round flow
	// summaries (default 64).
	SampleFlows int
	// SpoolRoot is where per-member disk spools live. Required — the
	// chaos phase exercises the disk tier.
	SpoolRoot string
	Seed      uint64
	// Obs, when set, receives the shared pipeline and store counters
	// and each member shipper's ladder group (prefixed
	// p4_shipper_<site>_<switch>).
	Obs *obs.Registry
}

// fedRounds splits each member's replay stream into extraction rounds,
// one simulated second apart. The chaos timeline partitions a member
// after round 2 and heals it after round 6; the last round replays the
// rest of each stream.
const fedRounds = 8

func (c FederationConfig) withDefaults() FederationConfig {
	if len(c.Sites) == 0 {
		c.Sites = []FedSite{{Name: "alpha", Switches: 2}, {Name: "beta", Switches: 2}}
	}
	if c.FlowsPerSite <= 0 {
		c.FlowsPerSite = 2000
	}
	if c.PacketsPerFlow <= 0 {
		c.PacketsPerFlow = 8
	}
	if c.SampleFlows <= 0 {
		c.SampleFlows = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// FederationPaper is the full-scale topology: 10 switches across 3
// sites driving hundreds of thousands of concurrent flows (3 × 70k).
func FederationPaper(spoolRoot string) FederationConfig {
	return FederationConfig{
		Sites: []FedSite{
			{Name: "alpha", Switches: 4},
			{Name: "beta", Switches: 3},
			{Name: "gamma", Switches: 3},
		},
		FlowsPerSite: 70_000,
		SpoolRoot:    spoolRoot,
	}
}

// MemberAccounting is one member's end-of-run ledger.
type MemberAccounting struct {
	Site, Switch string
	// Archived counts the documents the shared store attributes to this
	// member.
	Archived uint64
	// Ship is the member shipper's final counter snapshot; its Emitted
	// counts the reports stamped and handed to the shipper.
	Ship resilient.Stats
}

// Balanced reports the member's exact-accounting identity.
func (m MemberAccounting) Balanced() bool {
	return m.Archived == m.Ship.Emitted-m.Ship.Dropped-m.Ship.Fallback &&
		m.Ship.Queued == 0 && m.Ship.SpoolPending == 0
}

// FederationResult carries the scenario outcome.
type FederationResult struct {
	Config FederationConfig

	// Members holds per-member ledgers in (site, switch) order.
	Members []MemberAccounting
	// Fleet is the shared archiver's cross-site aggregation.
	Fleet psarchiver.FleetAggregate
	// Pipeline is the shared Logstash pipeline's counter snapshot;
	// TornLines sums undecodable fragments and counted read errors
	// across member inputs. Informational, not a Pass condition: the
	// scripted chaos cut can surface on the archiver side as one
	// counted connection-reset error (exactly as in the outage
	// scenario), and the exact-balance ledger is what proves no
	// record was lost or double-counted.
	Pipeline  psarchiver.PipelineStats
	TornLines uint64
	// Victim identifies the killed member; VictimReplayed and
	// VictimSpilled prove its outage went through the disk tier and
	// came back.
	Victim         string
	VictimSpilled  uint64
	VictimReplayed uint64
	// PathsConsistent reports that every multi-tap path joined with
	// zero byte spread (same-site tap points replay identical streams,
	// so any spread is an accounting defect).
	PathsConsistent bool
	// Replayed totals the workload actually driven.
	ReplayedRecords uint64

	// Log records the phase transitions.
	Log []string
}

// Balanced reports the fleet-wide exact-accounting invariant: every
// member balances individually and the store total is exactly the sum
// of member contributions (no unattributed documents).
func (r *FederationResult) Balanced() bool {
	var sum uint64
	for _, m := range r.Members {
		if !m.Balanced() {
			return false
		}
		sum += m.Archived
	}
	return sum == uint64(r.Fleet.Documents) && r.Fleet.Unstamped == 0 &&
		r.Pipeline.Received == sum
}

// Pass reports whether every federation guarantee held: exact
// accounting, the chaos phase's spool replay, and consistent path
// joins.
func (r *FederationResult) Pass() bool {
	return r.Balanced() && r.PathsConsistent && len(r.Fleet.Paths) > 0 &&
		r.VictimSpilled > 0 && r.VictimReplayed > 0
}

// Witness renders the deterministic run fingerprint: only
// order-independent, seed-determined quantities appear (emission
// counts, store attributions and sums), never
// scheduling-dependent ones (retries, reconnects, shipped/replayed
// splits), so two runs at the same seed produce byte-identical
// witnesses.
func (r *FederationResult) Witness() string {
	var b strings.Builder
	fmt.Fprintf(&b, "federation seed=%d members=%d rounds=%d flows_per_site=%d\n",
		r.Config.Seed, len(r.Members), fedRounds, r.Config.FlowsPerSite)
	for _, m := range r.Members {
		fmt.Fprintf(&b, "member %s/%s emitted=%d archived=%d dropped=%d fallback=%d\n",
			m.Site, m.Switch, m.Ship.Emitted, m.Archived, m.Ship.Dropped, m.Ship.Fallback)
	}
	for _, s := range r.Fleet.Sites {
		fmt.Fprintf(&b, "site %s docs=%d flows=%d bytes=%.0f fairness=%.6f\n",
			s.Site, s.Documents, s.Flows, s.TotalBytes, s.Fairness)
	}
	fmt.Fprintf(&b, "fleet docs=%d unstamped=%d global_fairness=%.6f paths=%d\n",
		r.Fleet.Documents, r.Fleet.Unstamped, r.Fleet.GlobalFairness, len(r.Fleet.Paths))
	return b.String()
}

// Render draws the scenario summary.
func (r *FederationResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: fleet federation — many switches, one observatory (DESIGN.md §5.9)\n")
	for _, l := range r.Log {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "\n%-18s %9s %9s %8s %8s %9s\n",
		"member", "emitted", "archived", "spilled", "replayed", "balanced")
	for _, m := range r.Members {
		fmt.Fprintf(&b, "%-18s %9d %9d %8d %8d %9v\n",
			m.Site+"/"+m.Switch, m.Ship.Emitted, m.Archived, m.Ship.Spilled, m.Ship.Replayed, m.Balanced())
	}
	fmt.Fprintf(&b, "\n%-10s %9s %9s %14s %10s\n", "site", "docs", "flows", "bytes", "fairness")
	for _, s := range r.Fleet.Sites {
		fmt.Fprintf(&b, "%-10s %9d %9d %14.0f %10.6f\n", s.Site, s.Documents, s.Flows, s.TotalBytes, s.Fairness)
	}
	fmt.Fprintf(&b, "\nreplayed %d records; %d multi-tap paths joined (consistent: %v), global fairness %.6f\n",
		r.ReplayedRecords, len(r.Fleet.Paths), r.PathsConsistent, r.Fleet.GlobalFairness)
	fmt.Fprintf(&b, "chaos: victim %s spilled=%d replayed=%d torn_lines=%d\n",
		r.Victim, r.VictimSpilled, r.VictimReplayed, r.TornLines)
	fmt.Fprintf(&b, "accounting balanced: %v\npass: %v\n", r.Balanced(), r.Pass())
	return b.String()
}

// SaveCSV writes the per-member fleet ledger and per-site rollups to
// dir (federation_members.csv, federation_sites.csv), for the results/
// archive and external plotting.
func (r *FederationResult) SaveCSV(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, rows []string) error {
		f, cerr := os.Create(filepath.Join(dir, name))
		if cerr != nil {
			return cerr
		}
		for _, row := range rows {
			if _, werr := fmt.Fprintln(f, row); werr != nil {
				_ = f.Close()
				return werr
			}
		}
		return f.Close()
	}
	members := []string{"site,switch,emitted,archived,dropped,fallback,spilled,replayed,balanced"}
	for _, m := range r.Members {
		members = append(members, fmt.Sprintf("%s,%s,%d,%d,%d,%d,%d,%d,%v",
			m.Site, m.Switch, m.Ship.Emitted, m.Archived, m.Ship.Dropped, m.Ship.Fallback,
			m.Ship.Spilled, m.Ship.Replayed, m.Balanced()))
	}
	if err := write("federation_members.csv", members); err != nil {
		return err
	}
	sites := []string{"site,documents,flows,bytes,packets,fairness"}
	for _, s := range r.Fleet.Sites {
		sites = append(sites, fmt.Sprintf("%s,%d,%d,%.0f,%.0f,%.6f",
			s.Site, s.Documents, s.Flows, s.TotalBytes, s.TotalPackets, s.Fairness))
	}
	return write("federation_sites.csv", sites)
}

// limitSource caps a replay source at n records, so one member's synth
// stream can be drained in per-round chunks.
type limitSource struct {
	src  replay.Source
	left int
}

func (l *limitSource) Next(r *replay.Record) bool {
	if l.left <= 0 {
		return false
	}
	l.left--
	return l.src.Next(r)
}

// fedMember is one simulated switch: data plane, replay stream, report
// path and shipper.
type fedMember struct {
	site, sw string
	sink     controlplane.Sink // identity stamp → the leg's counter → shipper
	leg      *shipLeg
	plane    *dataplane.Pipes
	synth    *replay.Synth
	perRnd   int
	flowLo   int // the member's site flow-number base
}

// name renders the member's identity as "site/switch".
func (m *fedMember) name() string { return m.site + "/" + m.sw }

// RunFederation runs the fleet scenario and returns the exact fleet
// accounting. It returns an error only when the harness itself fails
// (missing spool root, a phase that never converges) — measured
// outcomes, including failed assertions, land in the result.
func RunFederation(cfg FederationConfig) (*FederationResult, error) {
	cfg = cfg.withDefaults()
	if cfg.SpoolRoot == "" {
		return nil, fmt.Errorf("experiments: federation scenario requires SpoolRoot")
	}

	res := &FederationResult{Config: cfg}
	logf := func(format string, args ...interface{}) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}

	// Shared observatory: one pipeline, one store, N member inputs.
	pipeline := psarchiver.NewPipeline()
	store := psarchiver.NewStore()
	pipeline.OpenSearchOutput(store)
	if cfg.Obs != nil {
		pipeline.RegisterObs(cfg.Obs)
		store.RegisterObs(cfg.Obs)
	}

	// Build the fleet.
	var members []*fedMember
	for si, site := range cfg.Sites {
		for sw := 0; sw < site.Switches; sw++ {
			m := &fedMember{
				site:   site.Name,
				sw:     fmt.Sprintf("sw%d", sw+1),
				flowLo: si * cfg.FlowsPerSite,
			}
			m.plane = dataplane.NewPipes(dataplane.Config{
				LongFlowBytes:    1 << 62,
				DupFilterInserts: cfg.FlowsPerSite * cfg.PacketsPerFlow,
			}, 1)
			m.synth = &replay.Synth{
				Flows:    cfg.FlowsPerSite,
				Packets:  cfg.FlowsPerSite * cfg.PacketsPerFlow,
				FlowBase: m.flowLo,
			}
			m.perRnd = m.synth.Packets / fedRounds

			spoolDir := filepath.Join(cfg.SpoolRoot, m.site+"_"+m.sw)
			if err := os.MkdirAll(spoolDir, 0o755); err != nil {
				return nil, fmt.Errorf("experiments: federation spool dir: %w", err)
			}
			leg, err := newShipLeg(faultnet.NewListener(), pipeline, 4096, spoolDir, cfg.Seed+uint64(len(members)))
			if err != nil {
				return nil, err
			}
			m.leg = leg
			m.sink = controlplane.IdentitySink{SiteID: m.site, SwitchID: m.sw, Next: leg.shipper}
			if cfg.Obs != nil {
				leg.shipper.RegisterObsAs(cfg.Obs, "p4_shipper_"+m.site+"_"+m.sw)
			}
			members = append(members, m)
		}
	}
	logf("fleet up: %d members across %d sites, %d flows/site, %d records/member",
		len(members), len(cfg.Sites), cfg.FlowsPerSite, cfg.FlowsPerSite*cfg.PacketsPerFlow)

	// The chaos victim: the last switch of the first site — a site
	// with ≥2 switches keeps producing path joins while one tap point
	// is out.
	victim := members[cfg.Sites[0].Switches-1]
	res.Victim = victim.name()

	// extract emits one round's reports from a member: per-round flow
	// summaries for the sampled flows plus one aggregate.
	stride := cfg.FlowsPerSite / cfg.SampleFlows
	if stride == 0 {
		stride = 1
	}
	extract := func(m *fedMember, now simtime.Time) {
		sampled := make([]float64, 0, cfg.SampleFlows)
		var total uint64
		for i := 0; i < cfg.SampleFlows && i*stride < cfg.FlowsPerSite; i++ {
			g := m.flowLo + i*stride
			est := m.plane.EstimateFlow(replay.SynthFlowKey(g))
			sampled = append(sampled, float64(est.Bytes))
			total += est.Bytes
			m.sink.Emit(controlplane.Report{
				Kind:    controlplane.KindFlowSummary,
				TimeNs:  int64(now),
				FlowID:  fmt.Sprintf("flow-%07d", g),
				Bytes:   est.Bytes,
				Packets: est.Pkts,
				EndNs:   int64(now),
			})
		}
		m.sink.Emit(controlplane.Report{
			Kind:        controlplane.KindAggregate,
			TimeNs:      int64(now),
			ActiveFlows: cfg.FlowsPerSite,
			TotalBytes:  total,
			Fairness:    metrics.JainFairness(sampled),
		})
	}

	// Round loop. Every member (including a partitioned one — the
	// paper's measurement keeps running whether or not its archiver is
	// reachable) replays its chunk and emits reports; then the round's
	// scripted chaos event fires.
	for round := 0; round < fedRounds; round++ {
		now := simtime.Time(round+1) * simtime.Second
		for _, m := range members {
			left := m.perRnd
			if round == fedRounds-1 {
				left = m.synth.Packets // drain the remainder in the last round
			}
			run := replay.Runner{Plane: m.plane}.Run(&limitSource{src: m.synth, left: left}) //p4:lint-exempt determinism: Runner's wall clock only stamps Result.Elapsed; every counted quantity is register state
			res.ReplayedRecords += run.Packets
			extract(m, now)
		}

		switch round {
		case 2:
			// Kill: partition the victim — its archiver channel refuses
			// and cuts. Measurement continues.
			victim.leg.ln.Refuse(true)
			victim.leg.ln.CutAll()
			logf("round %d: victim %s partitioned (archiver refused)", round, victim.name())
		case 6:
			// Heal: the archiver channel recovers and the victim's spool
			// replays. Before the channel heals, wait for the victim's
			// partition-era queue to finish spilling to disk: the
			// breaker-open spill is an asynchronous wall-clock process,
			// and healing first would let still-queued records ship
			// directly instead of taking the spill→replay path the chaos
			// phase exists to exercise.
			if err := victim.leg.wait("federation member "+victim.name(), func(s resilient.Stats) bool { return s.Spilled > 0 && s.Queued == 0 }); err != nil {
				return nil, fmt.Errorf("experiments: federation victim never spilled: %w", err)
			}
			victim.leg.ln.Refuse(false)
			logf("round %d: victim %s healed, spool replaying", round, victim.name())
		}
	}

	// Drain: every member's queue and spool must empty (the victim's
	// drain includes its outage spool replaying), then shut down the
	// shipping path in order so every delivered line is ingested
	// before the counters are read.
	for _, m := range members {
		if err := m.leg.drainClose("federation member " + m.name()); err != nil {
			return nil, err
		}
	}

	// Ledgers and aggregation.
	res.Fleet = psarchiver.CrossSite(store, "p4-psonar")
	res.Pipeline = pipeline.Stats()
	for _, m := range members {
		res.TornLines += m.leg.input.Errors()
		acct := MemberAccounting{
			Site:     m.site,
			Switch:   m.sw,
			Archived: uint64(res.Fleet.MemberDocs(m.site, m.sw)),
			Ship:     m.leg.shipper.Stats(),
		}
		res.Members = append(res.Members, acct)
		if m == victim {
			res.VictimSpilled = acct.Ship.Spilled
			res.VictimReplayed = acct.Ship.Replayed
		}
	}
	res.PathsConsistent = true
	for _, p := range res.Fleet.Paths {
		if p.DeltaBytes != 0 {
			res.PathsConsistent = false
		}
	}
	logf("drained: %d docs archived, %d multi-tap paths", res.Fleet.Documents, len(res.Fleet.Paths))
	return res, nil
}
