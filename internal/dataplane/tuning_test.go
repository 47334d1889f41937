package dataplane

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func TestTuningFromConfigDefaults(t *testing.T) {
	d := New(Config{})
	tun := d.CurrentTuning()
	if tun.LongFlowBytes != 1<<20 || tun.BurstFactor != 4 ||
		tun.BurstEndFactor != 1.5 || tun.BurstFloor != simtime.Millisecond ||
		tun.BurstBaselineTau != 50*simtime.Millisecond {
		t.Fatalf("generation 0 does not match defaults: %+v", tun)
	}
	if err := tun.Validate(); err != nil {
		t.Fatalf("default tuning must validate: %v", err)
	}
}

func TestUpdateTuningTransactional(t *testing.T) {
	d := New(Config{})
	before := d.CurrentTuning()

	// A mutation that sets a valid field and then an invalid one must
	// publish nothing at all.
	err := d.UpdateTuning(func(tn *Tuning) error {
		tn.LongFlowBytes = 5000
		tn.BurstFactor = 0.5 // invalid: must exceed 1
		return nil
	})
	if err == nil {
		t.Fatal("invalid tuning must be rejected")
	}
	if d.CurrentTuning() != before {
		t.Fatalf("failed update changed the live tuning: %+v", d.CurrentTuning())
	}
	if seq := d.TuningSeq(); seq != 0 {
		t.Fatalf("failed update published a generation: seq %d", seq)
	}

	// A mutation that errors itself publishes nothing either.
	boom := fmt.Errorf("boom")
	if err := d.UpdateTuning(func(tn *Tuning) error { tn.LongFlowBytes = 1; return boom }); err != boom {
		t.Fatalf("mutation error not surfaced: %v", err)
	}
	if d.CurrentTuning() != before {
		t.Fatal("erroring mutation changed the live tuning")
	}

	if err := d.UpdateTuning(func(tn *Tuning) error { tn.LongFlowBytes = 5000; return nil }); err != nil {
		t.Fatalf("valid update failed: %v", err)
	}
	if got := d.CurrentTuning().LongFlowBytes; got != 5000 {
		t.Fatalf("LongFlowBytes=%d after update", got)
	}
	if seq := d.TuningSeq(); seq != 1 {
		t.Fatalf("seq after one update: %d", seq)
	}
}

func TestTuningValidate(t *testing.T) {
	base := TuningFrom(Config{}.WithDefaults())
	cases := []struct {
		name string
		mut  func(*Tuning)
	}{
		{"zero long-flow", func(tn *Tuning) { tn.LongFlowBytes = 0 }},
		{"factor at 1", func(tn *Tuning) { tn.BurstFactor = 1 }},
		{"end factor above factor", func(tn *Tuning) { tn.BurstEndFactor = tn.BurstFactor + 1 }},
		{"zero end factor", func(tn *Tuning) { tn.BurstEndFactor = 0 }},
		{"zero floor", func(tn *Tuning) { tn.BurstFloor = 0 }},
		{"zero tau", func(tn *Tuning) { tn.BurstBaselineTau = 0 }},
	}
	for _, tc := range cases {
		tn := base
		tc.mut(&tn)
		if tn.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tn)
		}
	}
}

func TestUpdateTuningChangesLongFlowThreshold(t *testing.T) {
	// Lowering the long-flow threshold at runtime must make the very
	// next packet batch announce flows the old generation ignored.
	d := New(Config{})
	var events []LongFlowEvent
	d.OnLongFlow = func(ev LongFlowEvent) { events = append(events, ev) }
	ft := flow()
	d.ProcessCopy(ingress(dataPkt(ft, 1, 1400, 1), 10))
	if len(events) != 0 {
		t.Fatal("1.4 kB must not trip the 1 MB default threshold")
	}
	if err := d.UpdateTuning(func(tn *Tuning) error { tn.LongFlowBytes = 2000; return nil }); err != nil {
		t.Fatal(err)
	}
	d.ProcessCopy(ingress(dataPkt(ft, 1401, 1400, 2), 20))
	if len(events) != 1 {
		t.Fatalf("new 2 kB threshold not applied: %d announcements", len(events))
	}
}

func TestPipesShareOneTuningStore(t *testing.T) {
	p := NewPipes(Config{}, 4)
	if err := p.UpdateTuning(func(tn *Tuning) error { tn.LongFlowBytes = 4096; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, d := range p.shards {
		if got := d.CurrentTuning().LongFlowBytes; got != 4096 {
			t.Fatalf("shard %d sees LongFlowBytes=%d", i, got)
		}
		if d.tuning != p.shards[0].tuning {
			t.Fatalf("shard %d has a private tuning store", i)
		}
	}
	if seq := p.TuningSeq(); seq != 1 {
		t.Fatalf("seq: %d", seq)
	}
}

func TestProcessFrontPinsOneGeneration(t *testing.T) {
	// A publish that lands mid-front — here from the long-flow handler
	// the front's first packet fires — must not reach the rest of that
	// front: every view reads the generation loaded at the front's
	// start, and the lowered threshold applies from the next front.
	d := New(Config{LongFlowBytes: 1400})
	var announced []uint16
	d.OnLongFlow = func(ev LongFlowEvent) {
		announced = append(announced, ev.Tuple.SrcPort)
		if err := d.UpdateTuning(func(tn *Tuning) error { tn.LongFlowBytes = 500; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	from := func(port uint16) packet.FiveTuple {
		ft := flow()
		ft.SrcPort = port
		return ft
	}
	f := NewFront(2)
	f.AppendCopy(ingress(dataPkt(from(40001), 1, 1400, 1), 10)) // crosses 1400 B
	f.AppendCopy(ingress(dataPkt(from(40002), 1, 600, 2), 20))  // crosses 500 B only
	d.ProcessFront(f)
	if got := d.CurrentTuning().LongFlowBytes; got != 500 {
		t.Fatalf("handler's publish not live: LongFlowBytes=%d", got)
	}
	if fmt.Sprint(announced) != "[40001]" {
		t.Fatalf("front saw a mid-front publish: announced %v, want [40001]", announced)
	}
	f.Reset()
	f.AppendCopy(ingress(dataPkt(from(40003), 1, 600, 3), 30))
	d.ProcessFront(f)
	if fmt.Sprint(announced) != "[40001 40003]" {
		t.Fatalf("next front ignored the lowered threshold: announced %v, want [40001 40003]", announced)
	}
}
