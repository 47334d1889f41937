package psconfig

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faultnet"
)

// dialVia adapts a faultnet listener to the SendOptions.Dial seam.
func dialVia(l *faultnet.Listener) func(string, time.Duration) (net.Conn, error) {
	return func(string, time.Duration) (net.Conn, error) { return l.Dial() }
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline or the deadline passes (conn-teardown propagation is
// asynchronous, per the resilient leak-test idiom).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}

func TestWireRoundTrip(t *testing.T) {
	cmd, _ := ParseConfigP4([]string{"--metric", "rtt", "--alert", "--threshold", "90", "--samples_per_second", "20"})
	back, err := FromWire(cmd.ToWire())
	if err != nil {
		t.Fatal(err)
	}
	if back.Metric != "rtt" || !back.Alert || back.Threshold != 90 || back.SamplesPerSecond != 20 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestWireRejectsInvalid(t *testing.T) {
	if _, err := FromWire(WireCommand{Metric: "bogus", SamplesPerSecond: 1}); err == nil {
		t.Fatal("invalid metric must be rejected on the server side")
	}
	if _, err := FromWire(WireCommand{}); err == nil {
		t.Fatal("empty command must be rejected")
	}
	// Non-positive values the CLI refuses must not be dropped and the
	// rest of the command applied.
	for _, w := range []WireCommand{
		{Metric: "rtt", Alert: true, Threshold: 50, SamplesPerSecond: -3},
		{Metric: "rtt", Threshold: -50, SamplesPerSecond: 3},
	} {
		if c, err := FromWire(w); err == nil {
			t.Errorf("FromWire(%+v) accepted %q", w, c.String())
		}
	}
}

func TestSendAndServeOverTCP(t *testing.T) {
	cp := newRealControlPlane(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeConfig(ln, cp)

	cmd, _ := ParseConfigP4([]string{"--metric", "throughput", "--samples_per_second", "8"})
	if err := cmd.SendWith(ln.Addr().String(), SendOptions{Timeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if got := cp.MetricConfigFor(controlplane.MetricThroughput).SamplesPerSecond; got != 8 {
		t.Fatalf("rate=%f after wire apply", got)
	}

	// An invalid command must come back as a rejection, not silence.
	bad := Command{Metric: "throughput"} // nothing to configure
	if err := bad.SendWith(ln.Addr().String(), SendOptions{Timeout: 2 * time.Second}); err == nil {
		t.Fatal("server must reject an empty command")
	}
}

func TestSendConnectError(t *testing.T) {
	cmd, _ := ParseConfigP4([]string{"--samples_per_second", "1"})
	if err := cmd.SendWith("127.0.0.1:1", SendOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("connecting to a dead port must fail")
	}
}

// TestServeConfigNoGoroutineLeakOnSilentClient is the regression test
// for the config-channel goroutine leak: a client that connects and
// never sends used to pin a handler goroutine in Decode for the
// listener's lifetime. With read deadlines the handler must be gone
// shortly after the deadline fires.
func TestServeConfigNoGoroutineLeakOnSilentClient(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeConfigWith(l, cp, ServeOptions{
			ReadTimeout:  50 * time.Millisecond,
			WriteTimeout: 50 * time.Millisecond,
		})
	}()
	baseline := runtime.NumGoroutine()

	var conns []net.Conn
	for i := 0; i < 5; i++ {
		c, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c) // connect, never send
	}
	waitGoroutines(t, baseline)
	for _, c := range conns {
		c.Close()
	}

	// Graceful drain: closing the listener must end the serve loop.
	l.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConfigWith did not return after listener close")
	}
}

// TestSendRetriesRefusedDials exercises the bounded-retry client: two
// scripted connection refusals followed by a working listener must
// succeed on the third attempt, with deterministic jittered sleeps.
func TestSendRetriesRefusedDials(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfig(l, cp)
	l.RefuseNext(2)

	var slept []time.Duration
	cmd, _ := ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "6"})
	err := cmd.SendWith("collector", SendOptions{
		Attempts:   3,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 40 * time.Millisecond,
		Seed:       7,
		Dial:       dialVia(l),
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatalf("send must succeed once refusals drain: %v", err)
	}
	if l.Dials() != 3 {
		t.Fatalf("dials=%d, want 3", l.Dials())
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps=%d, want 2 (one per retry)", len(slept))
	}
	// Equal jitter: each sleep lies in [backoff/2, backoff).
	for i, d := range slept {
		backoff := 10 * time.Millisecond << i
		if d < backoff/2 || d >= backoff {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, d, backoff/2, backoff)
		}
	}
	if got := cp.MetricConfigFor(controlplane.MetricRTT).SamplesPerSecond; got != 6 {
		t.Fatalf("rate=%g after retried send", got)
	}
}

// TestSendRetryExhaustion: a listener that refuses every dial must
// fail after exactly opts.Attempts attempts, not hang.
func TestSendRetryExhaustion(t *testing.T) {
	l := faultnet.NewListener()
	defer l.Close()
	l.Refuse(true)
	cmd, _ := ParseConfigP4([]string{"--samples_per_second", "1"})
	err := cmd.SendWith("collector", SendOptions{
		Attempts: 3,
		Dial:     dialVia(l),
		Sleep:    func(time.Duration) {},
	})
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("want exhaustion error naming attempts, got %v", err)
	}
	if l.Dials() != 3 {
		t.Fatalf("dials=%d, want 3", l.Dials())
	}
}

// rawExchange sends raw bytes as the request and decodes the server's
// response. The write runs in the background: net.Pipe is synchronous,
// and a server that (correctly) stops reading — size cap hit, busy
// rejection — would otherwise deadlock the test against its own
// unconsumed request bytes.
func rawExchange(t *testing.T, c net.Conn, raw []byte) WireResponse {
	t.Helper()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = c.Write(raw) // best effort; the server may cut us off
	}()
	var resp WireResponse
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp
}

// TestServeMalformedJSON: garbage on the wire must produce an error
// response, not a crash, and the server must keep serving afterwards.
func TestServeMalformedJSON(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfig(l, cp)

	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if resp := rawExchange(t, c, []byte("{nope")); resp.OK || resp.Error == "" {
		t.Fatalf("malformed JSON must be rejected with an error: %+v", resp)
	}

	cmd, _ := ParseConfigP4([]string{"--metric", "throughput", "--samples_per_second", "3"})
	if err := cmd.SendWith("collector", SendOptions{Dial: dialVia(l)}); err != nil {
		t.Fatalf("server must keep serving after a malformed request: %v", err)
	}
}

// TestServeOversizedRequest: a request larger than MaxRequestBytes is
// rejected with a size error instead of being buffered.
func TestServeOversizedRequest(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfigWith(l, cp, ServeOptions{MaxRequestBytes: 64})

	big := []byte(`{"metric":"throughput","samples_per_second":1,"pad":"` +
		strings.Repeat("x", 200) + `"}`)
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	resp := rawExchange(t, c, big)
	if resp.OK || !strings.Contains(resp.Error, "exceeds 64 bytes") {
		t.Fatalf("oversized request not rejected by size: %+v", resp)
	}
}

// TestServeMidRecordReset: a connection reset halfway through the
// request leaves the server healthy for the next command.
func TestServeMidRecordReset(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfig(l, cp)

	l.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Reset}})
	cmd, _ := ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "9"})
	if err := cmd.SendWith("collector", SendOptions{Attempts: 1, Dial: dialVia(l)}); err == nil {
		t.Fatal("mid-record reset must surface as a send error")
	}
	if got := cp.MetricConfigFor(controlplane.MetricRTT).SamplesPerSecond; got == 9 {
		t.Fatal("torn command must not be applied")
	}

	if err := cmd.SendWith("collector", SendOptions{Dial: dialVia(l)}); err != nil {
		t.Fatalf("server must keep serving after a reset: %v", err)
	}
	if got := cp.MetricConfigFor(controlplane.MetricRTT).SamplesPerSecond; got != 9 {
		t.Fatalf("rate=%g after clean resend", got)
	}
}

// TestServeStallVsDeadline: a client that stalls mid-record longer
// than the read deadline is cut off; the send fails instead of
// wedging a server goroutine.
func TestServeStallVsDeadline(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfigWith(l, cp, ServeOptions{
		ReadTimeout:  50 * time.Millisecond,
		WriteTimeout: 50 * time.Millisecond,
	})

	l.ScriptNext(faultnet.Script{{AfterBytes: 5, Kind: faultnet.Stall, Delay: 300 * time.Millisecond}})
	cmd, _ := ParseConfigP4([]string{"--metric", "rtt", "--samples_per_second", "2"})
	start := time.Now()
	err := cmd.SendWith("collector", SendOptions{Attempts: 1, Timeout: time.Second, Dial: dialVia(l)})
	if err == nil {
		t.Fatal("stalled send must fail once the server cuts the connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stall handling took %v; deadline did not bound it", elapsed)
	}
	if got := cp.MetricConfigFor(controlplane.MetricRTT).SamplesPerSecond; got == 2 {
		t.Fatal("stalled command must not be applied")
	}
}

// TestServeBusyCap: with MaxConns 1 occupied by a silent client, the
// next connection receives an immediate busy rejection.
func TestServeBusyCap(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfigWith(l, cp, ServeOptions{MaxConns: 1, ReadTimeout: 2 * time.Second})

	holder, err := l.Dial() // occupies the single slot, sends nothing
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	// The holder's handler start is asynchronous; poll until the second
	// connection observes the busy rejection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := l.Dial()
		if err != nil {
			t.Fatal(err)
		}
		resp := rawExchange(t, c, []byte(`{"samples_per_second":1}`))
		if !resp.OK && strings.Contains(resp.Error, "busy") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw the busy rejection; last response %+v", resp)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentCommandsUnderRace drives 16 concurrent commands at one
// collector. Every command must be acknowledged, the final config must
// be internally consistent (some accepted command's value for every
// metric), and the generation seq must count all 16.
func TestConcurrentCommandsUnderRace(t *testing.T) {
	cp := newRealControlPlane(t)
	l := faultnet.NewListener()
	defer l.Close()
	go ServeConfig(l, cp)

	metrics := controlplane.AllMetrics()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := metrics[i%len(metrics)]
			rate := fmt.Sprintf("%d", 1+i)
			cmd, err := ParseConfigP4([]string{"--metric", string(m), "--samples_per_second", rate})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = cmd.SendWith("collector", SendOptions{Dial: dialVia(l)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("command %d failed: %v", i, err)
		}
	}
	for i, m := range metrics {
		got := cp.MetricConfigFor(m).SamplesPerSecond
		want := map[float64]bool{}
		for j := i; j < 16; j += len(metrics) {
			want[float64(1+j)] = true
		}
		if !want[got] {
			t.Fatalf("metric %s rate %g is not any sent value %v", m, got, want)
		}
	}
	if seq := cp.ConfigSeq(); seq != 16 {
		t.Fatalf("generation seq after 16 commands: %d", seq)
	}
}
