// Package p4runtime models "the APIs provided by the manufacturer of
// the switch" (§4.1) that the paper's control plane uses to read
// data-plane registers at run time — the role P4Runtime/BfRt play on
// real Tofino deployments. A Server wraps a DataPlane and executes
// runtime operations: register reads (by P4 instance name), monitor
// table programming, flow snapshots and pipeline statistics. The
// operations travel as JSON lines over TCP so external tools (the
// cmd/p4rt CLI) can inspect a live collector.
package p4runtime

import (
	"fmt"
	"net/netip"

	"repro/internal/dataplane"
)

// Op names a runtime operation.
type Op string

// The supported runtime operations.
const (
	OpRegisterRead  Op = "register_read"
	OpRegisterReset Op = "register_reset"
	OpFlowRead      Op = "flow_read"
	OpTableSkip     Op = "table_skip"
	OpListRegisters Op = "list_registers"
	OpStats         Op = "stats"
)

// Request is one runtime operation.
type Request struct {
	Op Op `json:"op"`

	// Register operations.
	Register string `json:"register,omitempty"`
	Index    uint32 `json:"index,omitempty"`

	// Flow operations: the flow and reversed IDs from the long-flow
	// digest.
	FlowID uint32 `json:"flow_id,omitempty"`
	RevID  uint32 `json:"rev_id,omitempty"`

	// Table operations.
	Prefix string `json:"prefix,omitempty"`
}

// FlowReply carries one flow's register snapshot.
type FlowReply struct {
	Bytes   uint64  `json:"bytes"`
	Pkts    uint64  `json:"pkts"`
	PktLoss uint64  `json:"pkt_loss"`
	RTTMs   float64 `json:"rtt_ms"`
	QDelay  int64   `json:"qdelay_ns"`
	Flight  uint64  `json:"flight"`
	FinSeen bool    `json:"fin_seen"`
}

// Response answers a Request.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Value     uint64           `json:"value,omitempty"`
	Flow      *FlowReply       `json:"flow,omitempty"`
	Registers []string         `json:"registers,omitempty"`
	Stats     *dataplane.Stats `json:"stats,omitempty"`
}

// Server executes runtime operations against the (possibly sharded)
// data plane. Register and flow reads go through the Pipes front-end,
// which flushes pending batches and merges per-shard cells, so a
// runtime read always sees the coherent multi-pipe view. Access is
// not synchronised internally beyond that; callers that share the
// pipeline with a running simulation must serialise externally (the
// collector daemon does so with its stepper mutex via the Guard hook).
type Server struct {
	dp *dataplane.Pipes

	// Guard, when set, wraps every operation — the collector daemon
	// uses it to serialise runtime access with the simulation stepper.
	Guard func(func())
}

// NewServer wraps a sharded pipeline front-end.
func NewServer(dp *dataplane.Pipes) *Server { return &Server{dp: dp} }

// Handle executes one operation.
func (s *Server) Handle(req Request) Response {
	var resp Response
	run := func() { resp = s.handleLocked(req) }
	if s.Guard != nil {
		s.Guard(run)
	} else {
		run()
	}
	return resp
}

func (s *Server) handleLocked(req Request) Response {
	switch req.Op {
	case OpRegisterRead:
		v, err := s.dp.ReadRegister(req.Register, req.Index)
		if err != nil {
			return errResp("%v", err)
		}
		return Response{OK: true, Value: v}

	case OpRegisterReset:
		if err := s.dp.ResetRegister(req.Register, req.Index); err != nil {
			return errResp("%v", err)
		}
		return Response{OK: true}

	case OpFlowRead:
		snap := s.dp.ReadFlow(dataplane.FlowID(req.FlowID), dataplane.FlowID(req.RevID))
		return Response{OK: true, Flow: &FlowReply{
			Bytes:   snap.Bytes,
			Pkts:    snap.Pkts,
			PktLoss: snap.PktLoss,
			RTTMs:   snap.RTT.Millis(),
			QDelay:  int64(snap.QDelay),
			Flight:  snap.Flight,
			FinSeen: snap.FinSeen,
		}}

	case OpTableSkip:
		prefix, err := netip.ParsePrefix(req.Prefix)
		if err != nil {
			return errResp("bad prefix %q: %v", req.Prefix, err)
		}
		if err := s.dp.SkipSubnet(prefix); err != nil {
			return errResp("%v", err)
		}
		return Response{OK: true}

	case OpListRegisters:
		return Response{OK: true, Registers: s.dp.RegisterNames()}

	case OpStats:
		st := s.dp.StatsSnapshot()
		return Response{OK: true, Stats: &st}

	default:
		return errResp("unknown op %q", req.Op)
	}
}

func errResp(format string, args ...interface{}) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}
