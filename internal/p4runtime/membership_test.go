package p4runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// fakeMembership is a scriptable Membership for transport tests: it
// counts calls and can fail on demand, standing in for the federation
// coordinator without importing it (which would cycle).
type fakeMembership struct {
	mu         sync.Mutex
	registers  []MemberInfo
	heartbeats []MemberInfo
	fleetSeq   uint64
	failNext   bool
}

func (f *fakeMembership) MemberRegister(info MemberInfo) (MemberAck, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext {
		f.failNext = false
		return MemberAck{}, fmt.Errorf("registry full")
	}
	f.registers = append(f.registers, info)
	return MemberAck{Incarnation: uint64(len(f.registers)), FleetSeq: f.fleetSeq}, nil
}

func (f *fakeMembership) MemberHeartbeat(info MemberInfo) (MemberAck, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.heartbeats = append(f.heartbeats, info)
	return MemberAck{Incarnation: 1, FleetSeq: f.fleetSeq}, nil
}

func (f *fakeMembership) MemberList() []MemberStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []MemberStatus
	for i, r := range f.registers {
		out = append(out, MemberStatus{Site: r.Site, Switch: r.Switch, State: "alive", Incarnation: uint64(i + 1)})
	}
	return out
}

func (f *fakeMembership) counts() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.registers), len(f.heartbeats)
}

func member(sw string, gen uint64) MemberInfo {
	return MemberInfo{Site: "alpha", Switch: sw, ConfigAddr: "alpha/" + sw + ":config", Generation: gen}
}

func TestMembershipNotServed(t *testing.T) {
	s := NewServer(nil)
	if resp := s.Handle(Request{Op: OpMemberRegister, Member: &MemberInfo{Site: "a", Switch: "b"}}); resp.OK {
		t.Fatal("membership op must fail without a Membership implementation")
	}
	// A membership-only server rejects data-plane ops instead of
	// dereferencing a nil pipeline.
	if resp := s.Handle(Request{Op: OpStats}); resp.OK {
		t.Fatal("data-plane op must fail without a data plane")
	}
}

func TestMembershipMissingInfo(t *testing.T) {
	s := NewServer(nil)
	s.Members = &fakeMembership{}
	for _, op := range []Op{OpMemberRegister, OpMemberHeartbeat} {
		if resp := s.Handle(Request{Op: op}); resp.OK {
			t.Fatalf("%s without member info must fail", op)
		}
	}
}

func TestMembershipOverTransport(t *testing.T) {
	fm := &fakeMembership{fleetSeq: 7}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	defer ln.Close()
	go Serve(ln, s)

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()

	ack, err := c.MemberRegister(member("sw1", 0))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Incarnation != 1 || ack.FleetSeq != 7 {
		t.Fatalf("ack: %+v", ack)
	}
	ack, err = c.MemberHeartbeat(member("sw1", 7))
	if err != nil {
		t.Fatal(err)
	}
	if ack.FleetSeq != 7 {
		t.Fatalf("heartbeat ack: %+v", ack)
	}
	ms, err := c.MemberList()
	if err != nil || len(ms) != 1 || ms[0].Switch != "sw1" {
		t.Fatalf("list: %+v err=%v", ms, err)
	}
	// A server-side registry error surfaces as a client error and the
	// connection survives it.
	fm.mu.Lock()
	fm.failNext = true
	fm.mu.Unlock()
	if _, err := c.MemberRegister(member("sw2", 0)); err == nil {
		t.Fatal("registry error not propagated")
	}
	if _, err := c.MemberHeartbeat(member("sw1", 7)); err != nil {
		t.Fatalf("connection did not survive server error: %v", err)
	}
}

// TestMembershipMidRecordReset cuts the client connection mid-request
// (the JSON line is torn at a byte offset): the in-flight call fails,
// the server drops the partial record without registering anything,
// and a fresh connection re-registers cleanly — the duplicate shows up
// registry-side, not as transport corruption.
func TestMembershipMidRecordReset(t *testing.T) {
	fm := &fakeMembership{}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	defer ln.Close()
	go Serve(ln, s)

	// First connection: the first write resets after 10 bytes —
	// mid-record, well inside the JSON request line.
	ln.ScriptNext(faultnet.Script{{AfterBytes: 10, Kind: faultnet.Reset}})
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	if _, err := c.MemberRegister(member("sw1", 0)); err == nil {
		t.Fatal("mid-record reset must fail the in-flight call")
	}
	c.Close()

	// The torn fragment must not have produced a registration.
	waitCond(t, func() bool { r, _ := fm.counts(); return r == 0 })

	// Reconnect and register for real.
	conn2, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(conn2)
	defer c2.Close()
	if _, err := c2.MemberRegister(member("sw1", 0)); err != nil {
		t.Fatal(err)
	}
	if r, _ := fm.counts(); r != 1 {
		t.Fatalf("registers after recovery: %d", r)
	}
}

// TestMembershipStalledHeartbeat stalls a heartbeat's write long
// enough that the caller's deadline logic (here: a timed wait) would
// declare the member suspect before the beat lands — the transport
// delivers it late rather than corrupting it.
func TestMembershipStalledHeartbeat(t *testing.T) {
	fm := &fakeMembership{}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	defer ln.Close()
	go Serve(ln, s)

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
		_, err := c.MemberHeartbeat(member("sw1", 0))
		done <- err
	}()
	// The beat has not arrived by the 20ms "deadline" …
	time.Sleep(20 * time.Millisecond)
	if _, hb := fm.counts(); hb != 0 {
		t.Fatal("stalled heartbeat arrived before the stall elapsed")
	}
	// … but it lands, intact, once the stall elapses.
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("heartbeat returned before the stall: %v", elapsed)
	}
	if _, hb := fm.counts(); hb != 1 {
		t.Fatal("stalled heartbeat lost")
	}
}

// TestMembershipConcurrentClients registers members from concurrent
// connections (run under -race): one serveConn goroutine per client
// all calling into the shared Membership.
func TestMembershipConcurrentClients(t *testing.T) {
	fm := &fakeMembership{}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	defer ln.Close()
	go Serve(ln, s)

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			c := NewClient(conn)
			defer c.Close()
			if _, err := c.MemberRegister(member(fmt.Sprintf("sw%d", i), 0)); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.MemberHeartbeat(member(fmt.Sprintf("sw%d", i), 0)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	r, hb := fm.counts()
	if r != n || hb != n {
		t.Fatalf("registers=%d heartbeats=%d", r, hb)
	}
}

// TestServeShutdownNoLeak proves coordinator-side shutdown leaks no
// goroutines: closing the listener ends the accept loop, and closing
// client connections ends every serveConn.
func TestServeShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	fm := &fakeMembership{}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	go Serve(ln, s)

	var clients []*Client
	for i := 0; i < 4; i++ {
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		if _, err := c.MemberRegister(member(fmt.Sprintf("sw%d", i), 0)); err != nil {
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
	fm := &fakeMembership{}
	s := NewServer(nil)
	s.Members = fm
	ln := faultnet.NewListener()
	go Serve(ln, s)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)

	info := member("sw1", 0)
	line, err := json.Marshal(Request{Op: OpMemberRegister, Member: &info})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, bytes.Repeat([]byte(" "), maxRequestBytes-1-len(line))...)
	if _, err := conn.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil || !resp.OK || resp.Ack == nil {
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
	if regs, _ := fm.counts(); regs != 1 {
		t.Fatalf("%d registrations, want the one at the cap", regs)
	}
	ln.Close()
	waitCond(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestMalformedRequestAnswered: a line that is not a JSON request gets
// one error response naming it, then the server closes the connection,
// so the client reads why instead of a bare EOF.
func TestMalformedRequestAnswered(t *testing.T) {
	ln := faultnet.NewListener()
	defer ln.Close()
	go Serve(ln, NewServer(nil))
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
