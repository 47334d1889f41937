package p4runtime

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/tap"
)

func testFlow() packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.MustAddr("172.16.0.10"),
		DstIP:   packet.MustAddr("192.168.1.10"),
		SrcPort: 40001,
		DstPort: 5201,
		Proto:   packet.ProtoTCP,
	}
}

func feed(dp *dataplane.Pipes, n int) {
	ft := testFlow()
	for i := 0; i < n; i++ {
		p := packet.NewTCP(ft, uint64(1+i*1000), 0, packet.FlagACK|packet.FlagPSH, 1000)
		p.IPID = uint16(i + 1)
		dp.ProcessCopy(tap.Copy{Pkt: p, Point: tap.Ingress, At: simtime.Time(i+1) * simtime.Millisecond})
	}
}

func TestServerRegisterRead(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 5)
	s := NewServer(dp)

	id := dataplane.HashFiveTuple(testFlow())
	size := dp.Shard(0).RegisterByName("flow_pkts").Size()
	resp := s.Handle(Request{Op: OpRegisterRead, Register: "flow_pkts", Index: uint32(id) % uint32(size)})
	if !resp.OK || resp.Value != 5 {
		t.Fatalf("resp: %+v", resp)
	}
}

// TestServerRejectsOutOfRangeIndex: a wire index past the register's
// size is an error naming both, and must not fold onto the flow cell
// it aliases modulo the size.
func TestServerRejectsOutOfRangeIndex(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 5)
	s := NewServer(dp)

	size := uint32(dp.Shard(0).RegisterByName("flow_pkts").Size())
	cell := uint32(dataplane.HashFiveTuple(testFlow())) % size
	for _, op := range []Op{OpRegisterReset, OpRegisterRead} {
		resp := s.Handle(Request{Op: op, Register: "flow_pkts", Index: cell + size})
		if resp.OK {
			t.Fatalf("%s of index %d on a %d-cell register answered OK", op, cell+size, size)
		}
		for _, want := range []string{fmt.Sprint(cell + size), fmt.Sprint(size)} {
			if !strings.Contains(resp.Error, want) {
				t.Errorf("%s error %q does not name %s", op, resp.Error, want)
			}
		}
	}
	if resp := s.Handle(Request{Op: OpRegisterRead, Register: "flow_pkts", Index: cell}); !resp.OK || resp.Value != 5 {
		t.Fatalf("aliased flow cell after rejected reset: %+v", resp)
	}
}

func TestServerUnknownRegister(t *testing.T) {
	s := NewServer(dataplane.NewPipes(dataplane.Config{}, 1))
	if resp := s.Handle(Request{Op: OpRegisterRead, Register: "nope"}); resp.OK {
		t.Fatal("unknown register must fail")
	}
}

func TestServerFlowRead(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 7)
	s := NewServer(dp)
	ft := testFlow()
	resp := s.Handle(Request{
		Op:     OpFlowRead,
		FlowID: uint32(dataplane.HashFiveTuple(ft)),
		RevID:  uint32(dataplane.HashReverse(ft)),
	})
	if !resp.OK || resp.Flow == nil {
		t.Fatalf("resp: %+v", resp)
	}
	if resp.Flow.Pkts != 7 || resp.Flow.Bytes != 7*1040 {
		t.Fatalf("flow: %+v", resp.Flow)
	}
}

func TestServerTableSkip(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	s := NewServer(dp)
	if resp := s.Handle(Request{Op: OpTableSkip, Prefix: "192.168.1.0/24"}); !resp.OK {
		t.Fatalf("resp: %+v", resp)
	}
	feed(dp, 3)
	if dp.StatsSnapshot().SkippedPackets != 3 {
		t.Fatalf("skipped=%d", dp.StatsSnapshot().SkippedPackets)
	}
	if resp := s.Handle(Request{Op: OpTableSkip, Prefix: "not-a-prefix"}); resp.OK {
		t.Fatal("bad prefix must fail")
	}
}

func TestServerListAndStats(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 2)
	s := NewServer(dp)
	lr := s.Handle(Request{Op: OpListRegisters})
	if !lr.OK || len(lr.Registers) < 20 {
		t.Fatalf("registers: %v", lr.Registers)
	}
	st := s.Handle(Request{Op: OpStats})
	if !st.OK || st.Stats.IngressCopies != 2 {
		t.Fatalf("stats: %+v", st.Stats)
	}
}

func TestServerUnknownOp(t *testing.T) {
	s := NewServer(dataplane.NewPipes(dataplane.Config{}, 1))
	if resp := s.Handle(Request{Op: "frobnicate"}); resp.OK {
		t.Fatal("unknown op must fail")
	}
}

func TestServerGuardSerialises(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	s := NewServer(dp)
	var mu sync.Mutex
	guarded := 0
	s.Guard = func(f func()) {
		mu.Lock()
		guarded++
		f()
		mu.Unlock()
	}
	s.Handle(Request{Op: OpStats})
	s.Handle(Request{Op: OpListRegisters})
	if guarded != 2 {
		t.Fatalf("guard used %d times", guarded)
	}
}

func TestClientServerOverTCP(t *testing.T) {
	dp := dataplane.NewPipes(dataplane.Config{}, 1)
	feed(dp, 4)
	s := NewServer(dp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, s)

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	regs, err := c.ListRegisters()
	if err != nil || len(regs) == 0 {
		t.Fatalf("list: %v %v", regs, err)
	}
	ft := testFlow()
	flow, err := c.FlowRead(uint32(dataplane.HashFiveTuple(ft)), uint32(dataplane.HashReverse(ft)))
	if err != nil {
		t.Fatal(err)
	}
	if flow.Pkts != 4 {
		t.Fatalf("flow over wire: %+v", flow)
	}
	if err := c.TableSkip("10.9.0.0/16"); err != nil {
		t.Fatal(err)
	}
	// Server-side errors surface as client errors.
	if _, err := c.RegisterRead("bogus", 0); err == nil {
		t.Fatal("server error not propagated")
	}
	// The connection survives an error and handles further requests.
	v, err := c.RegisterRead("flow_pkts", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = v
}
