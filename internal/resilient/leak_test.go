package resilient

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestCloseTerminatesGoroutines counts the goroutines a shipper
// starts — the run loop plus whatever per-connection servers its dials
// induced — and requires every one to be gone after Close, in every
// degradation state. The harness (listener, archiver accept loop) is
// created before the baseline count so only shipper-owned goroutines
// are measured.
func TestCloseTerminatesGoroutines(t *testing.T) {
	scenarios := map[string]func(t *testing.T) func() *Shipper{
		"terminal": func(t *testing.T) func() *Shipper {
			return func() *Shipper {
				s, _ := New(Config{Fallback: &lockedBuffer{}, Seed: 1})
				return s
			}
		},
		"healthy": func(t *testing.T) func() *Shipper {
			l := faultnet.NewListener()
			t.Cleanup(func() { l.Close() })
			newTestArchiver(l)
			return func() *Shipper {
				s, _ := New(Config{Dial: l.Dial, Sleep: fastSleep, Seed: 1, Fallback: &lockedBuffer{}})
				return s
			}
		},
		"refused-backing-off": func(t *testing.T) func() *Shipper {
			l := faultnet.NewListener()
			t.Cleanup(func() { l.Close() })
			l.Refuse(true)
			return func() *Shipper {
				// Real sleeps: Close must interrupt a pending backoff.
				s, _ := New(Config{Dial: l.Dial, BackoffMin: 50 * time.Millisecond, Seed: 1, Fallback: &lockedBuffer{}})
				return s
			}
		},
		"breaker-open-spilling": func(t *testing.T) func() *Shipper {
			l := faultnet.NewListener()
			t.Cleanup(func() { l.Close() })
			l.Refuse(true)
			dir := t.TempDir()
			return func() *Shipper {
				s, _ := New(Config{Dial: l.Dial, SpoolDir: dir, BreakerFailures: 1, Sleep: fastSleep, Seed: 1, Fallback: &lockedBuffer{}})
				return s
			}
		},
	}
	for name, setup := range scenarios {
		t.Run(name, func(t *testing.T) {
			mk := setup(t)
			before := runtime.NumGoroutine()
			s := mk()
			for i := 0; i < 25; i++ {
				s.Emit(report(i))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Conn-teardown propagation to the archiver's per-conn
			// goroutines is asynchronous; allow a grace period.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= before {
					return
				}
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		})
	}
}
