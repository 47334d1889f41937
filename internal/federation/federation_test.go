package federation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/obs"
	"repro/internal/p4runtime"
	"repro/internal/psconfig"
	"repro/internal/simtime"
)

func info(site, sw string, gen uint64) p4runtime.MemberInfo {
	return p4runtime.MemberInfo{Site: site, Switch: sw, ConfigAddr: site + "/" + sw + ":config", Generation: gen}
}

func at(s int) simtime.Time { return simtime.Time(s) * simtime.Second }

func TestIdentityOrderAndString(t *testing.T) {
	a := Identity{Site: "alpha", Switch: "sw2"}
	b := Identity{Site: "beta", Switch: "sw1"}
	if a.String() != "alpha/sw2" {
		t.Fatalf("string: %s", a)
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("site ordering broken")
	}
	c := Identity{Site: "alpha", Switch: "sw1"}
	if !c.Less(a) {
		t.Fatal("switch ordering broken")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{StateAlive: "alive", StateSuspect: "suspect", StateDead: "dead", State(9): "state(9)"} {
		if s.String() != want {
			t.Fatalf("%d: %s", int(s), s)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewCoordinator(Config{})
	if _, err := c.RegisterAt(p4runtime.MemberInfo{Site: "", Switch: "sw1"}, 0); err == nil {
		t.Fatal("empty site must fail")
	}
	if _, err := c.RegisterAt(p4runtime.MemberInfo{Site: "a", Switch: ""}, 0); err == nil {
		t.Fatal("empty switch must fail")
	}
}

func TestLivenessLifecycle(t *testing.T) {
	c := NewCoordinator(Config{SuspectAfter: 2 * simtime.Second, DeadAfter: 4 * simtime.Second})
	if _, err := c.RegisterAt(info("alpha", "sw1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterAt(info("alpha", "sw2", 0), at(0)); err != nil {
		t.Fatal(err)
	}

	// sw1 heartbeats, sw2 goes silent.
	if _, err := c.HeartbeatAt(info("alpha", "sw1", 0), at(1)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(2)) // sw2 silence = 2s → suspect
	if a, s, d := c.States(); a != 1 || s != 1 || d != 0 {
		t.Fatalf("states: alive=%d suspect=%d dead=%d", a, s, d)
	}
	if _, err := c.HeartbeatAt(info("alpha", "sw1", 0), at(3)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(4)) // sw2 silence = 4s → dead
	if a, s, d := c.States(); a != 1 || s != 0 || d != 1 {
		t.Fatalf("states: alive=%d suspect=%d dead=%d", a, s, d)
	}

	// A heartbeat from the dead member recovers it.
	if _, err := c.HeartbeatAt(info("alpha", "sw2", 0), at(5)); err != nil {
		t.Fatal(err)
	}
	if a, _, d := c.States(); a != 2 || d != 0 {
		t.Fatalf("recovery failed: alive=%d dead=%d", a, d)
	}
	ct := c.Counters()
	if ct.SuspectTransitions != 1 || ct.DeadTransitions != 1 || ct.Recovered != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestSilentAliveGoesStraightToDead(t *testing.T) {
	c := NewCoordinator(Config{SuspectAfter: simtime.Second, DeadAfter: 2 * simtime.Second})
	if _, err := c.RegisterAt(info("a", "s", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(10)) // far beyond both deadlines in one tick
	if _, _, d := c.States(); d != 1 {
		t.Fatal("member not dead")
	}
	ct := c.Counters()
	if ct.SuspectTransitions != 1 || ct.DeadTransitions != 1 {
		t.Fatalf("straight-to-dead must count both transitions: %+v", ct)
	}
}

func TestUnknownHeartbeatRejected(t *testing.T) {
	c := NewCoordinator(Config{})
	if _, err := c.HeartbeatAt(info("a", "ghost", 0), at(1)); err == nil {
		t.Fatal("unknown heartbeat must fail")
	}
	if ct := c.Counters(); ct.UnknownHeartbeats != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestDuplicateAndRejoinRegistration(t *testing.T) {
	c := NewCoordinator(Config{SuspectAfter: simtime.Second, DeadAfter: 2 * simtime.Second})
	ack1, err := c.RegisterAt(info("a", "s", 0), at(0))
	if err != nil {
		t.Fatal(err)
	}
	// Still alive: duplicate registration, new incarnation wins.
	ack2, err := c.RegisterAt(info("a", "s", 0), at(0))
	if err != nil {
		t.Fatal(err)
	}
	if ack2.Incarnation <= ack1.Incarnation {
		t.Fatalf("incarnation did not advance: %d → %d", ack1.Incarnation, ack2.Incarnation)
	}
	// Dead, then re-register: a rejoin.
	c.Tick(at(5))
	if _, err := c.RegisterAt(info("a", "s", 0), at(5)); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.DuplicateRegistrations != 1 || ct.Rejoined != 1 || ct.Registered != 1 {
		t.Fatalf("counters: %+v", ct)
	}
	if a, _, _ := c.States(); a != 1 {
		t.Fatal("rejoined member not alive")
	}
}

func mustCmd(t *testing.T, args ...string) psconfig.Command {
	t.Helper()
	cmd, err := psconfig.ParseConfigP4(args)
	if err != nil {
		t.Fatal(err)
	}
	return cmd
}

// applyLog is a test Applier recording per-address applications and
// failing configured addresses.
type applyLog struct {
	applied map[string]int
	fail    map[string]bool
}

func (a *applyLog) apply(addr string, cmd psconfig.Command) error {
	if a.fail[addr] {
		return fmt.Errorf("config channel down")
	}
	if a.applied == nil {
		a.applied = map[string]int{}
	}
	a.applied[addr]++
	return nil
}

func TestFanOutTracksPerMemberGenerations(t *testing.T) {
	al := &applyLog{fail: map[string]bool{"a/s2:config": true}}
	c := NewCoordinator(Config{Apply: al.apply})
	for _, sw := range []string{"s1", "s2", "s3"} {
		if _, err := c.RegisterAt(info("a", sw, 0), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	fr := c.FanOut(mustCmd(t, "--samples_per_second", "4"), nil)
	if fr.Seq != 1 || len(fr.Applied) != 2 || len(fr.Failed) != 1 {
		t.Fatalf("fanout: %+v", fr)
	}
	if fr.Failed[0] != (Identity{Site: "a", Switch: "s2"}) {
		t.Fatalf("wrong failure: %+v", fr.Failed)
	}
	// The failed member's generation did not advance: it is lagging.
	lag := c.Lagging()
	if len(lag) != 1 || lag[0].Switch != "s2" {
		t.Fatalf("lagging: %+v", lag)
	}
	// Member list shows per-member generations.
	for _, m := range c.MemberList() {
		want := uint64(1)
		if m.Switch == "s2" {
			want = 0
		}
		if m.ConfigSeq != want {
			t.Fatalf("%s config_seq=%d want %d", m.Switch, m.ConfigSeq, want)
		}
	}
	// Channel recovers; reconciliation replays exactly the missed
	// command and the fleet converges.
	al.fail["a/s2:config"] = false
	n, err := c.Reconcile(Identity{Site: "a", Switch: "s2"})
	if err != nil || n != 1 {
		t.Fatalf("reconcile: n=%d err=%v", n, err)
	}
	if lag := c.Lagging(); len(lag) != 0 {
		t.Fatalf("still lagging: %+v", lag)
	}
	ct := c.Counters()
	if ct.FanOuts != 1 || ct.FanOutOK != 2 || ct.FanOutFailed != 1 || ct.Reconciled != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestFanOutSkipsNonAliveAndSelector(t *testing.T) {
	al := &applyLog{}
	c := NewCoordinator(Config{SuspectAfter: simtime.Second, DeadAfter: 2 * simtime.Second, Apply: al.apply})
	if _, err := c.RegisterAt(info("a", "s1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterAt(info("a", "s2", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterAt(info("b", "s1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	// s2 goes silent and dies; a selector also deselects site b.
	if _, err := c.HeartbeatAt(info("a", "s1", 0), at(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HeartbeatAt(info("b", "s1", 0), at(3)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(3))
	fr := c.FanOut(mustCmd(t, "--samples_per_second", "2"), func(id Identity) bool { return id.Site == "a" })
	if len(fr.Applied) != 1 || len(fr.Skipped) != 2 {
		t.Fatalf("fanout: %+v", fr)
	}
	if al.applied["a/s1:config"] != 1 || len(al.applied) != 1 {
		t.Fatalf("applied: %+v", al.applied)
	}
}

func TestReconcileStopsAtFirstFailure(t *testing.T) {
	al := &applyLog{}
	c := NewCoordinator(Config{Apply: al.apply})
	if _, err := c.RegisterAt(info("a", "s1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	// Two fan-outs while the member's channel is down.
	al.fail = map[string]bool{"a/s1:config": true}
	c.FanOut(mustCmd(t, "--samples_per_second", "4"), nil)
	c.FanOut(mustCmd(t, "--samples_per_second", "8"), nil)
	// Reconcile with the channel still down: zero replayed, counted.
	if n, err := c.Reconcile(Identity{Site: "a", Switch: "s1"}); err == nil || n != 0 {
		t.Fatalf("reconcile should fail: n=%d err=%v", n, err)
	}
	al.fail["a/s1:config"] = false
	n, err := c.Reconcile(Identity{Site: "a", Switch: "s1"})
	if err != nil || n != 2 {
		t.Fatalf("reconcile: n=%d err=%v", n, err)
	}
	if ct := c.Counters(); ct.ReconcileFailures != 1 || ct.Reconciled != 2 {
		t.Fatalf("counters: %+v", ct)
	}
	if _, err := c.Reconcile(Identity{Site: "zz", Switch: "zz"}); err == nil {
		t.Fatal("unknown member must fail")
	}
}

func TestStaleGenerationDetection(t *testing.T) {
	al := &applyLog{}
	c := NewCoordinator(Config{Apply: al.apply})
	if _, err := c.RegisterAt(info("a", "s1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	c.FanOut(mustCmd(t, "--samples_per_second", "4"), nil)
	// A heartbeat still reporting generation 0 is stale.
	ack, err := c.HeartbeatAt(info("a", "s1", 0), at(1))
	if err != nil {
		t.Fatal(err)
	}
	if ack.FleetSeq != 1 {
		t.Fatalf("ack: %+v", ack)
	}
	if ct := c.Counters(); ct.StaleHeartbeats != 1 {
		t.Fatalf("counters: %+v", ct)
	}
}

func TestMembershipInterfaceUsesLogicalClock(t *testing.T) {
	c := NewCoordinator(Config{SuspectAfter: simtime.Second, DeadAfter: 2 * simtime.Second})
	var _ p4runtime.Membership = c
	if _, err := c.MemberRegister(info("a", "s1", 0)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(10)) // clock advances; member registered at 0 → dead
	if _, _, d := c.States(); d != 1 {
		t.Fatal("member should be dead")
	}
	// Heartbeat through the interface stamps at the ticked clock and
	// recovers the member.
	if _, err := c.MemberHeartbeat(info("a", "s1", 0)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(10)) // same instant: no silence accumulated
	if a, _, _ := c.States(); a != 1 {
		t.Fatal("member should be alive")
	}
	ms := c.MemberList()
	if len(ms) != 1 || ms[0].State != "alive" {
		t.Fatalf("list: %+v", ms)
	}
}

func TestConfigNowHook(t *testing.T) {
	now := at(0)
	c := NewCoordinator(Config{SuspectAfter: simtime.Second, DeadAfter: 2 * simtime.Second, Now: func() simtime.Time { return now }})
	if _, err := c.MemberRegister(info("a", "s1", 0)); err != nil {
		t.Fatal(err)
	}
	now = at(3)
	if _, err := c.MemberHeartbeat(info("a", "s1", 0)); err != nil {
		t.Fatal(err)
	}
	c.Tick(at(3))
	if a, _, _ := c.States(); a != 1 {
		t.Fatal("hook-stamped heartbeat ignored")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SuspectAfter <= 0 || cfg.DeadAfter <= cfg.SuspectAfter {
		t.Fatalf("defaults: %+v", cfg)
	}
	// A DeadAfter at or below SuspectAfter is repaired.
	cfg = Config{SuspectAfter: 10 * simtime.Second, DeadAfter: simtime.Second}.withDefaults()
	if cfg.DeadAfter <= cfg.SuspectAfter {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestMemberRuntimeTransactional(t *testing.T) {
	mr := NewMemberRuntime(controlplane.RuntimeConfig{})
	if mr.Seq() != 0 {
		t.Fatalf("seq: %d", mr.Seq())
	}
	if err := mustCmd(t, "--metric", "throughput", "--samples_per_second", "4").Apply(mr); err != nil {
		t.Fatal(err)
	}
	if mr.Seq() != 1 {
		t.Fatalf("seq after apply: %d", mr.Seq())
	}
	before := mr.Snapshot()
	// A failing mutation publishes nothing: seq and value unchanged.
	if err := mr.Update(func(rc *controlplane.RuntimeConfig) error { return fmt.Errorf("boom") }); err == nil {
		t.Fatal("error must propagate")
	}
	if mr.Seq() != 1 || mr.Snapshot() != before {
		t.Fatal("failed update must not publish")
	}
}

func TestFanOutOrderIsDeterministic(t *testing.T) {
	var order []string
	c := NewCoordinator(Config{Apply: func(addr string, cmd psconfig.Command) error {
		order = append(order, addr)
		return nil
	}})
	// Register in shuffled order; fan-out must visit sorted.
	for _, sw := range []string{"s3", "s1", "s2"} {
		if _, err := c.RegisterAt(info("a", sw, 0), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	c.FanOut(mustCmd(t, "--samples_per_second", "1"), nil)
	if strings.Join(order, ",") != "a/s1:config,a/s2:config,a/s3:config" {
		t.Fatalf("order: %v", order)
	}
}

func TestRegisterObsScrape(t *testing.T) {
	al := &applyLog{}
	c := NewCoordinator(Config{Apply: al.apply})
	if _, err := c.RegisterAt(info("a", "s1", 0), at(0)); err != nil {
		t.Fatal(err)
	}
	c.FanOut(mustCmd(t, "--samples_per_second", "4"), nil)
	if c.FleetSeq() != 1 {
		t.Fatalf("fleet seq: %d", c.FleetSeq())
	}
	r := obs.NewRegistry()
	c.RegisterObs(r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"p4_fed_members 1",
		"p4_fed_members_alive 1",
		"p4_fed_fleet_seq 1",
		"p4_fed_command_log 1",
		"p4_fed_registered 1",
		"p4_fed_fanout_ok 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
