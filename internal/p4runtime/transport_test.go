package p4runtime

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/faultnet"
)

// countingServer serves a fed pipeline behind a Guard that serialises
// every operation (as the collector's stepper mutex does) and counts
// the operations it ran, so transport tests can tell a request the
// server executed from one it never saw.
type countingServer struct {
	*Server
	mu  sync.Mutex
	ops int
}

func newCountingServer() *countingServer {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 5)
	cs := &countingServer{Server: NewServer(dp)}
	cs.Guard = func(f func()) {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		cs.ops++
		f()
	}
	return cs
}

func (cs *countingServer) handled() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.ops
}

// serveFaultnet starts cs on an in-memory listener.
func serveFaultnet(cs *countingServer) *faultnet.Listener {
	ln := faultnet.NewListener()
	go Serve(ln, cs.Server)
	return ln
}

// flowCell is the flow_pkts cell the fed test flow counts into.
func flowCell(s *Server) uint32 {
	size := uint32(s.dp.Shard(0).RegisterByName("flow_pkts").Size())
	return uint32(dataplane.HashFiveTuple(testFlow())) % size
}

// TestMidRecordReset cuts the client connection mid-request (the JSON
// line is torn at a byte offset): the in-flight call fails, the server
// executes nothing for the partial record — the register the torn
// request would have reset keeps its value — and a fresh connection
// then runs the same request cleanly.
func TestMidRecordReset(t *testing.T) {
	cs := newCountingServer()
	ln := serveFaultnet(cs)
	defer ln.Close()
	cell := flowCell(cs.Server)
	reset := Request{Op: OpRegisterReset, Register: "flow_pkts", Index: cell}

	// First connection: the first write resets after 10 bytes —
	// mid-record, well inside the JSON request line.
	ln.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Reset}})
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	if _, err := c.Do(reset); err == nil {
		t.Fatal("mid-record reset must fail the in-flight call")
	}
	c.Close()

	conn2, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(conn2)
	defer c2.Close()
	// The torn fragment reset nothing …
	if v, err := c2.RegisterRead("flow_pkts", cell); err != nil || v != 5 {
		t.Fatalf("after torn reset: value %d err=%v, want 5", v, err)
	}
	// … and the whole request, resent, does.
	if _, err := c2.Do(reset); err != nil {
		t.Fatal(err)
	}
	if v, err := c2.RegisterRead("flow_pkts", cell); err != nil || v != 0 {
		t.Fatalf("after reset: value %d err=%v, want 0", v, err)
	}
	if n := cs.handled(); n != 3 {
		t.Fatalf("server ran %d operations, want 3", n)
	}
}

// TestStalledRequest stalls a request's write mid-line: the server
// runs nothing until the rest of the line arrives, and the request is
// then delivered late and intact rather than corrupted.
func TestStalledRequest(t *testing.T) {
	cs := newCountingServer()
	ln := serveFaultnet(cs)
	defer ln.Close()

	ln.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Stall, Delay: 50 * time.Millisecond}})
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(Request{Op: OpStats})
		done <- err
	}()
	// The request has not been served 20ms in …
	time.Sleep(20 * time.Millisecond)
	if cs.handled() != 0 {
		t.Fatal("stalled request served before the stall elapsed")
	}
	// … but it lands, intact, once the stall elapses.
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("request returned before the stall: %v", elapsed)
	}
	if n := cs.handled(); n != 1 {
		t.Fatalf("server ran %d operations, want 1", n)
	}
}

// TestConcurrentClients runs requests from concurrent connections (run
// under -race): one serveConn goroutine per client, all calling into
// the shared, Guard-serialised pipeline.
func TestConcurrentClients(t *testing.T) {
	cs := newCountingServer()
	ln := serveFaultnet(cs)
	defer ln.Close()
	cell := flowCell(cs.Server)

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			c := NewClient(conn)
			defer c.Close()
			if v, err := c.RegisterRead("flow_pkts", cell); err != nil || v != 5 {
				t.Errorf("register_read: %d err=%v", v, err)
				return
			}
			if resp, err := c.Do(Request{Op: OpStats}); err != nil || resp.Stats == nil {
				t.Errorf("stats: %+v err=%v", resp, err)
			}
		}()
	}
	wg.Wait()
	if got := cs.handled(); got != 2*n {
		t.Fatalf("server ran %d operations, want %d", got, 2*n)
	}
}

// TestServeShutdownNoLeak proves server shutdown leaks no goroutines:
// closing the listener ends the accept loop, and closing client
// connections ends every serveConn.
func TestServeShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cs := newCountingServer()
	ln := serveFaultnet(cs)

	var clients []*Client
	for i := 0; i < 4; i++ {
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		if _, err := c.Do(Request{Op: OpStats}); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		c.Close()
	}
	ln.Close()
	waitCond(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestRequestLineCap bounds what one connection can make the server
// buffer: a request line of exactly maxRequestBytes (newline included)
// is served, and a longer one gets one error response, after which the
// server closes the connection and its goroutine exits — the client
// never closes its end here.
func TestRequestLineCap(t *testing.T) {
	before := runtime.NumGoroutine()
	cs := newCountingServer()
	ln := serveFaultnet(cs)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)

	line, err := json.Marshal(Request{Op: OpListRegisters})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, bytes.Repeat([]byte(" "), maxRequestBytes-1-len(line))...)
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil || !resp.OK || len(resp.Registers) == 0 {
		t.Fatalf("request at the cap: %+v err=%v", resp, err)
	}

	// The pipe is synchronous and the server stops reading at the cap,
	// so the rest of the write fails once the server hangs up.
	wrote := make(chan error, 1)
	go func() {
		// Well-formed so far: a decoder with no cap would keep buffering.
		_, err := conn.Write(append([]byte(`{"register":"`), bytes.Repeat([]byte("x"), 16*maxRequestBytes)...))
		wrote <- err
	}()
	resp = Response{}
	if err := dec.Decode(&resp); err != nil || resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("oversized request: %+v err=%v", resp, err)
	}
	if err := dec.Decode(&resp); err == nil {
		t.Fatal("connection still open after an oversized request")
	}
	if err := <-wrote; err == nil {
		t.Fatal("server read an oversized line to its end")
	}
	if n := cs.handled(); n != 1 {
		t.Fatalf("server ran %d operations, want the one at the cap", n)
	}
	ln.Close()
	waitCond(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestMalformedRequestAnswered: a line that is not a JSON request gets
// one error response naming it, then the server closes the connection,
// so the client reads why instead of a bare EOF.
func TestMalformedRequestAnswered(t *testing.T) {
	cs := newCountingServer()
	ln := serveFaultnet(cs)
	defer ln.Close()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"op\": \n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var resp Response
	if err := dec.Decode(&resp); err != nil || resp.OK || !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("malformed request: %+v err=%v", resp, err)
	}
	if err := dec.Decode(&resp); err == nil {
		t.Fatal("connection still open after a malformed request")
	}
	if n := cs.handled(); n != 0 {
		t.Fatalf("server ran %d operations for a malformed line", n)
	}
}

// waitCond polls until cond holds or the test deadline budget runs
// out — shutdown and delivery are asynchronous, so assertions
// synchronise on observed state, never on fixed sleeps.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition did not converge")
}
