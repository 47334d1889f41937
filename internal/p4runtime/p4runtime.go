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

	// Fleet-membership operations (DESIGN.md §5.9). They travel over
	// the same JSON-lines transport but are served by a Membership
	// implementation (the federation coordinator) rather than the data
	// plane; a server without one rejects them.
	OpMemberRegister  Op = "member_register"
	OpMemberHeartbeat Op = "member_heartbeat"
	OpMemberList      Op = "member_list"
)

// MemberInfo identifies a fleet member in membership operations: who
// is registering or heartbeating, where its config channel listens,
// and which config generation it currently runs (the coordinator uses
// Generation to detect members that rejoined with stale configuration).
type MemberInfo struct {
	Site       string `json:"site"`
	Switch     string `json:"switch"`
	ConfigAddr string `json:"config_addr,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
}

// MemberAck answers a register or heartbeat: the incarnation the
// coordinator assigned to this (re)registration, and the fleet-wide
// config generation, so a member can tell it is running stale
// configuration (Generation < FleetSeq).
type MemberAck struct {
	Incarnation uint64 `json:"incarnation"`
	FleetSeq    uint64 `json:"fleet_seq"`
}

// MemberStatus is one member's registry entry as reported by
// OpMemberList.
type MemberStatus struct {
	Site        string `json:"site"`
	Switch      string `json:"switch"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
	ConfigSeq   uint64 `json:"config_seq"`
}

// Membership serves the fleet-membership operations. The federation
// coordinator is the production implementation; the p4runtime server
// only transports the calls.
type Membership interface {
	// MemberRegister admits (or re-admits) a member to the fleet.
	MemberRegister(info MemberInfo) (MemberAck, error)
	// MemberHeartbeat refreshes a member's liveness deadline.
	MemberHeartbeat(info MemberInfo) (MemberAck, error)
	// MemberList snapshots the registry.
	MemberList() []MemberStatus
}

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

	// Membership operations (OpMemberRegister, OpMemberHeartbeat).
	Member *MemberInfo `json:"member,omitempty"`
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

	// Membership answers.
	Ack     *MemberAck     `json:"ack,omitempty"`
	Members []MemberStatus `json:"members,omitempty"`
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

	// Members, when set, serves the fleet-membership operations. The
	// federation coordinator implements it; a plain collector leaves it
	// nil and rejects membership requests. Membership implementations
	// must be internally synchronised — the Guard only serialises
	// data-plane access.
	Members Membership
}

// NewServer wraps a sharded pipeline front-end. dp may be nil for a
// membership-only server (the federation coordinator), which then
// rejects every data-plane operation.
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
	case OpMemberRegister, OpMemberHeartbeat, OpMemberList:
		return s.handleMember(req)
	}
	if s.dp == nil {
		return errResp("no data plane attached")
	}
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

func (s *Server) handleMember(req Request) Response {
	if s.Members == nil {
		return errResp("membership not served here")
	}
	switch req.Op {
	case OpMemberRegister, OpMemberHeartbeat:
		if req.Member == nil {
			return errResp("%s: missing member info", req.Op)
		}
		var (
			ack MemberAck
			err error
		)
		if req.Op == OpMemberRegister {
			ack, err = s.Members.MemberRegister(*req.Member)
		} else {
			ack, err = s.Members.MemberHeartbeat(*req.Member)
		}
		if err != nil {
			return errResp("%v", err)
		}
		return Response{OK: true, Ack: &ack}
	default: // OpMemberList
		return Response{OK: true, Members: s.Members.MemberList()}
	}
}

func errResp(format string, args ...interface{}) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}
