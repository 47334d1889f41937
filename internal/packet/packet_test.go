package packet

import "testing"

func ft() FiveTuple {
	return FiveTuple{
		SrcIP:   MustAddr("10.0.0.1"),
		DstIP:   MustAddr("192.168.1.9"),
		SrcPort: 40001,
		DstPort: 5201,
		Proto:   ProtoTCP,
	}
}

func TestFiveTupleReverse(t *testing.T) {
	f := ft()
	r := f.Reverse()
	if r.SrcIP != f.DstIP || r.DstIP != f.SrcIP {
		t.Fatal("IPs not swapped")
	}
	if r.SrcPort != f.DstPort || r.DstPort != f.SrcPort {
		t.Fatal("ports not swapped")
	}
	if r.Proto != f.Proto {
		t.Fatal("protocol must be preserved")
	}
	if r.Reverse() != f {
		t.Fatal("double reverse must be identity")
	}
}

func TestNewTCPLengths(t *testing.T) {
	p := NewTCP(ft(), 100, 0, FlagACK|FlagPSH, 1448)
	if int(p.TotalLen) != IPv4HeaderLen+TCPHeaderLen+1448 {
		t.Fatalf("TotalLen=%d", p.TotalLen)
	}
	if p.WireLen() != EthernetHeaderLen+int(p.TotalLen) {
		t.Fatalf("WireLen=%d", p.WireLen())
	}
	if !p.CarriesData() || p.IsACKOnly() {
		t.Fatal("data packet misclassified")
	}
}

func TestNewUDPLengths(t *testing.T) {
	f := ft()
	f.Proto = ProtoUDP
	p := NewUDP(f, 512)
	if int(p.TotalLen) != IPv4HeaderLen+UDPHeaderLen+512 {
		t.Fatalf("TotalLen=%d", p.TotalLen)
	}
}

func TestACKClassification(t *testing.T) {
	ack := NewTCP(ft().Reverse(), 1, 1449, FlagACK, 0)
	if !ack.IsACKOnly() || ack.CarriesData() {
		t.Fatal("pure ACK misclassified")
	}
}

func TestExpectedAck(t *testing.T) {
	p := NewTCP(ft(), 1000, 0, FlagACK, 500)
	// eACK = seq + payload, computed from the header length fields
	// exactly as in Algorithm 1.
	if got := p.ExpectedAck(); got != 1500 {
		t.Fatalf("ExpectedAck=%d, want 1500", got)
	}
}

func TestExpectedAckSYNConsumesSequence(t *testing.T) {
	p := NewTCP(ft(), 0, 0, FlagSYN, 0)
	if got := p.ExpectedAck(); got != 1 {
		t.Fatalf("SYN ExpectedAck=%d, want 1", got)
	}
	f := NewTCP(ft(), 999, 0, FlagFIN|FlagACK, 0)
	if got := f.ExpectedAck(); got != 1000 {
		t.Fatalf("FIN ExpectedAck=%d, want 1000", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewTCP(ft(), 7, 8, FlagACK, 100)
	q := p.Clone()
	q.SeqExt = 999
	q.Flags = 0
	if p.SeqExt != 7 || p.Flags != FlagACK {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("proto strings wrong")
	}
	if Proto(99).String() != "proto(99)" {
		t.Fatal("unknown proto string wrong")
	}
}
