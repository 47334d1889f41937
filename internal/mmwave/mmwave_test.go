package mmwave

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// fastCfg is a scaled scenario that runs in milliseconds of wall time.
func fastCfg() Config {
	return Config{
		RateBps:          netsim.Mbps(100),
		Duration:         8 * simtime.Second,
		BlockageStart:    3 * simtime.Second,
		BlockageDuration: 2 * simtime.Second, // the paper's 2 s window
	}
}

func TestNoBlockageNoDetectorSteadyIAT(t *testing.T) {
	cfg := fastCfg()
	cfg.BlockageStart = 100 * simtime.Second // never happens within Duration
	r := Run(DetectorNone, cfg)
	if r.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// Figure 13(a): without blockage, IAT stays at the CBR gap.
	gap := simtime.Time(float64((1400+42)*8) / cfg.RateBps * 1e9)
	if r.MaxIAT > 3*gap {
		t.Fatalf("maxIAT %v far above CBR gap %v", r.MaxIAT, gap)
	}
}

func TestBlockageCausesIATSpike(t *testing.T) {
	// Figure 13(b): blockage multiplies IAT by orders of magnitude.
	r := Run(DetectorNone, fastCfg())
	if r.MaxIAT < 900*simtime.Millisecond {
		t.Fatalf("maxIAT %v, want ~1s (the blockage window)", r.MaxIAT)
	}
	gap := simtime.Time(float64((1400+42)*8) / fastCfg().RateBps * 1e9)
	if float64(r.MaxIAT)/float64(gap) < 1000 {
		t.Fatalf("IAT increase only %.0fx, want orders of magnitude", float64(r.MaxIAT)/float64(gap))
	}
}

func TestP4DetectorReactsWithinThreshold(t *testing.T) {
	cfg := fastCfg()
	r := Run(DetectorP4IAT, cfg)
	if r.DetectedAt == 0 {
		t.Fatal("P4 detector never fired")
	}
	if r.DetectionLatency > 3*iatThreshold {
		t.Fatalf("P4 detection latency %v, want ~IAT threshold", r.DetectionLatency)
	}
	if r.RecoveredAt == 0 {
		t.Fatal("no recovery after handover")
	}
}

func TestThroughputDetectorSlowerThanP4(t *testing.T) {
	cfg := fastCfg()
	p4 := Run(DetectorP4IAT, cfg)
	tp := Run(DetectorThroughput, cfg)
	if tp.DetectedAt == 0 {
		t.Fatal("throughput detector never fired")
	}
	if tp.DetectionLatency <= p4.DetectionLatency {
		t.Fatalf("throughput detector (%v) must be slower than P4 (%v)",
			tp.DetectionLatency, p4.DetectionLatency)
	}
}

func TestRSSIDetectorSlowest(t *testing.T) {
	cfg := fastCfg()
	tp := Run(DetectorThroughput, cfg)
	rs := Run(DetectorRSSI, cfg)
	if rs.DetectedAt == 0 {
		t.Fatal("RSSI detector never fired")
	}
	if rs.DetectionLatency <= tp.DetectionLatency {
		t.Fatalf("RSSI detector (%v) must be slower than throughput-based (%v)",
			rs.DetectionLatency, tp.DetectionLatency)
	}
}

func TestFigure14Ordering(t *testing.T) {
	// The paper's headline: outage duration P4 < throughput < RSSI,
	// and the no-detector run only recovers when the blockage lifts.
	all := CompareAll(fastCfg())
	p4 := all[DetectorP4IAT].OutageDuration
	tp := all[DetectorThroughput].OutageDuration
	rs := all[DetectorRSSI].OutageDuration
	none := all[DetectorNone].OutageDuration
	if !(p4 < tp && tp < rs) {
		t.Fatalf("outage ordering wrong: p4=%v tp=%v rssi=%v", p4, tp, rs)
	}
	if none < fastCfg().BlockageDuration {
		t.Fatalf("no-detector run recovered during blockage: %v", none)
	}
	if p4 > 100*simtime.Millisecond {
		t.Fatalf("p4 outage %v, should be a few ms", p4)
	}
}

func TestThroughputSeriesShowsOutage(t *testing.T) {
	r := Run(DetectorNone, fastCfg())
	// Bins inside the blockage window must be ~zero; bins before must
	// be ~the offered rate.
	inBlockage := r.Throughput.Between(3200*simtime.Millisecond, 3800*simtime.Millisecond)
	for _, p := range inBlockage {
		if p.V > 0.1*netsim.Mbps(100) {
			t.Fatalf("throughput %v during blockage at %v", p.V, p.T)
		}
	}
	before := r.Throughput.Between(2*simtime.Second, 3*simtime.Second)
	for _, p := range before {
		if p.V < 0.8*netsim.Mbps(100) {
			t.Fatalf("throughput %v before blockage at %v", p.V, p.T)
		}
	}
}

func TestDeliveredAccounting(t *testing.T) {
	r := Run(DetectorP4IAT, fastCfg())
	if r.Delivered == 0 || r.Offered == 0 || r.Delivered > r.Offered {
		t.Fatalf("delivery accounting wrong: %d/%d", r.Delivered, r.Offered)
	}
	// With fast handover nearly everything is delivered.
	frac := float64(r.Delivered) / float64(r.Offered)
	if frac < 0.99 {
		t.Fatalf("delivered fraction %.4f with P4 handover, want >0.99", frac)
	}
}

func TestDetectorKindString(t *testing.T) {
	if DetectorP4IAT.String() != "p4-iat" || DetectorRSSI.String() != "rssi" ||
		DetectorThroughput.String() != "throughput" || DetectorNone.String() != "none" {
		t.Fatal("detector names wrong")
	}
}

func TestDescribe(t *testing.T) {
	r := Run(DetectorP4IAT, fastCfg())
	s := r.Describe()
	if len(s) == 0 || s[:6] != "p4-iat" {
		t.Fatalf("describe: %q", s)
	}
}
