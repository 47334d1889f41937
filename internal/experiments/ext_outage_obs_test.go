package experiments

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scrapeShipper GETs /metrics from the telemetry endpoint and returns
// the p4_shipper_* gauge values keyed by suffix ("emitted", "queued",
// ...). It fails the test on transport or parse errors.
func scrapeShipper(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	vals := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "p4_shipper_") {
			continue
		}
		name, num, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("scrape: malformed sample line %q", line)
		}
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			t.Fatalf("scrape: bad value in %q: %v", line, err)
		}
		vals[strings.TrimPrefix(name, "p4_shipper_")] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return vals
}

// ladderBalance checks the shipper accounting invariant on one scrape:
// every emitted record is in exactly one terminal or pending state.
func ladderBalance(vals map[string]uint64) error {
	sum := vals["shipped"] + vals["replayed"] + vals["fallback"] +
		vals["dropped"] + vals["queued"] + vals["spool_pending"]
	if vals["emitted"] != sum {
		return fmt.Errorf("emitted=%d but shipped+replayed+fallback+dropped+queued+spool_pending=%d (%v)",
			vals["emitted"], sum, vals)
	}
	return nil
}

// TestExtOutageObsInvariant runs the full archiver-outage scenario with
// self-telemetry enabled and hammers the /metrics endpoint from
// concurrent scrapers the whole time. Every single scrape — including
// ones landing mid-spill, mid-replay, or mid-drop — must satisfy
//
//	emitted == shipped + replayed + fallback + dropped + queued + spool_pending
//
// because the gauges are rendered from one locked Stats snapshot and
// the shipper moves records between states under that same lock. A
// transiently unbalanced scrape is a real race, not test flakiness.
func TestExtOutageObsInvariant(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	done := make(chan struct{})
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		scrapes int
		firstEr error
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				vals := scrapeShipper(t, srv.URL)
				err := ladderBalance(vals)
				mu.Lock()
				scrapes++
				if err != nil && firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
			}
		}()
	}

	res, err := RunExtOutage(OutageConfig{SpoolDir: t.TempDir(), Seed: 7, Obs: reg})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if firstEr != nil {
		t.Fatalf("mid-scenario scrape violated the ladder invariant: %v", firstEr)
	}
	if scrapes == 0 {
		t.Fatal("no scrapes completed during the scenario")
	}
	t.Logf("%d concurrent scrapes, all balanced", scrapes)

	// The final scrape must agree exactly with the scenario's own
	// Stats snapshot — the gauges are the same counters, not copies
	// that can drift.
	final := scrapeShipper(t, srv.URL)
	if err := ladderBalance(final); err != nil {
		t.Fatalf("final scrape unbalanced: %v", err)
	}
	want := map[string]uint64{
		"emitted":       res.Ship.Emitted,
		"shipped":       res.Ship.Shipped,
		"replayed":      res.Ship.Replayed,
		"retried":       res.Ship.Retried,
		"dropped":       res.Ship.Dropped,
		"spilled":       res.Ship.Spilled,
		"fallback":      res.Ship.Fallback,
		"dial_attempts": res.Ship.DialAttempts,
		"reconnects":    res.Ship.Reconnects,
		"breaker_opens": res.Ship.BreakerOpens,
		"queued":        res.Ship.Queued,
		"spool_pending": res.Ship.SpoolPending,
	}
	for name, w := range want {
		if got := final[name]; got != w {
			t.Errorf("final p4_shipper_%s = %d, scenario Stats say %d", name, got, w)
		}
	}

	// The scenario toggles every rung of the degradation ladder, so the
	// trace ring must have recorded lifecycle events across the
	// spectrum: delivery, breaker, spill and replay.
	var tr *obs.Trace
	for _, candidate := range reg.Traces() {
		if candidate.Name() == "shipper" {
			tr = candidate
		}
	}
	if tr == nil {
		t.Fatal("shipper trace ring not registered")
	}
	events := tr.Snapshot(nil)
	if len(events) == 0 {
		t.Fatal("shipper trace ring is empty after a four-phase outage scenario")
	}
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"ship", "breaker_open", "spill", "replay", "connect"} {
		if kinds[want] == 0 {
			t.Errorf("trace ring recorded no %q events (kinds seen: %v)", want, kinds)
		}
	}

	// Also verify the archiver-side telemetry agrees with the harness
	// accounting: ingested lines == decodable + torn.
	archiver := scrapeArchiver(t, srv.URL)
	if got := archiver["input_errors_total"]; got != res.TornLines {
		t.Errorf("p4_archiver_input_errors_total = %d, harness counted %d torn lines", got, res.TornLines)
	}
	if got, want := archiver["pipeline_received"], res.Archived; got != want {
		t.Errorf("p4_archiver_pipeline_received = %d, harness archived %d", got, want)
	}
	if got, want := archiver["store_documents"], res.Archived; got != want || archiver["store_bytes"] == 0 {
		t.Errorf("p4_archiver_store_documents = %d (store_bytes %d), harness archived %d", got, archiver["store_bytes"], want)
	}
}

// scrapeArchiver returns the p4_archiver_* samples keyed by suffix.
func scrapeArchiver(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	vals := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "p4_archiver_") {
			continue
		}
		name, num, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		vals[strings.TrimPrefix(name, "p4_archiver_")] = v
	}
	return vals
}
