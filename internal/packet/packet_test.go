package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTCP4RoundTrip(t *testing.T) {
	p := TCP4(0xAA0000000001, 0xBB0000000002, 0x0A000001, 0xC0000201, 12345, 443)
	wire := p.Marshal(nil)
	if len(wire) != MinFrameLen {
		t.Fatalf("frame length = %d, want %d (padded)", len(wire), MinFrameLen)
	}
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.EthSrc != p.EthSrc || q.EthDst != p.EthDst || q.EthType != EtherTypeIPv4 {
		t.Errorf("ethernet mismatch: %+v", q)
	}
	if !q.HasIPv4 || q.IPSrc != p.IPSrc || q.IPDst != p.IPDst || q.TTL != 64 || q.Proto != ProtoTCP {
		t.Errorf("ip mismatch: %+v", q)
	}
	if !q.HasL4 || q.SrcPort != 12345 || q.DstPort != 443 {
		t.Errorf("l4 mismatch: %+v", q)
	}
}

func TestVLANRoundTrip(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	p.HasVLAN = true
	p.VLANID = 0x123
	p.VLANPrio = 5
	wire := p.Marshal(nil)
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasVLAN || q.VLANID != 0x123 || q.VLANPrio != 5 {
		t.Errorf("vlan mismatch: %+v", q)
	}
	if q.EthType != EtherTypeIPv4 {
		t.Errorf("inner ethertype = %#x", q.EthType)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 1000, 53)
	p.Proto = ProtoUDP
	p.Payload = []byte("query")
	wire := p.Marshal(nil)
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasL4 || q.DstPort != 53 || q.Proto != ProtoUDP {
		t.Errorf("udp mismatch: %+v", q)
	}
	if !bytes.HasPrefix(q.Payload, []byte("query")) {
		t.Errorf("payload lost: %q", q.Payload)
	}
}

func TestParseRejectsShortFrame(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Errorf("10-byte frame parsed")
	}
}

func TestParseRejectsBadChecksum(t *testing.T) {
	wire := TCP4(1, 2, 3, 4, 5, 6).Marshal(nil)
	wire[EthHeaderLen+10] ^= 0xFF // corrupt IPv4 checksum
	if _, err := Parse(wire); err == nil {
		t.Errorf("bad checksum accepted")
	}
}

func TestParseRejectsBadIPVersion(t *testing.T) {
	wire := TCP4(1, 2, 3, 4, 5, 6).Marshal(nil)
	wire[EthHeaderLen] = 0x65 // version 6
	if _, err := Parse(wire); err == nil {
		t.Errorf("IPv6 version nibble accepted as IPv4")
	}
}

func TestParseNonIPPayload(t *testing.T) {
	frame := make([]byte, MinFrameLen)
	putMAC(frame[0:6], 0x111111111111)
	putMAC(frame[6:12], 0x222222222222)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	p, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.HasIPv4 || p.HasL4 {
		t.Errorf("ARP frame decoded as IP: %+v", p)
	}
	if p.EthType != EtherTypeARP {
		t.Errorf("ethertype = %#x", p.EthType)
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// The classic RFC 1071 example.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("Checksum = %#x, want 0x220d", got)
	}
	// A buffer with its own checksum folded in must verify to zero.
	p := TCP4(1, 2, 3, 4, 5, 6)
	wire := p.Marshal(nil)
	if Checksum(wire[EthHeaderLen:EthHeaderLen+IPv4HeaderLen]) != 0 {
		t.Errorf("self-checksummed header does not verify")
	}
	// Odd length.
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Errorf("odd-length checksum wrong")
	}
}

func TestMarshalReusesBuffer(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	buf := make([]byte, 0, 128)
	w1 := p.Marshal(buf)
	if &w1[0] != &buf[:1][0] {
		t.Errorf("Marshal did not reuse the provided buffer")
	}
}

func TestParseIntoReuses(t *testing.T) {
	var p Packet
	if err := p.ParseInto(TCP4(1, 2, 3, 4, 5, 6).Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	old := p
	if err := p.ParseInto(TCP4(9, 9, 9, 9, 9, 9).Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	if p.IPSrc == old.IPSrc {
		t.Errorf("ParseInto did not overwrite")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(es, ed uint64, is, id uint32, sp, dp uint16, vlan uint16, hasVLAN bool) bool {
		p := TCP4(es, ed, is, id, sp, dp)
		if hasVLAN {
			p.HasVLAN = true
			p.VLANID = vlan & 0x0FFF
		}
		q, err := Parse(p.Marshal(nil))
		if err != nil {
			return false
		}
		return q.EthSrc == p.EthSrc && q.EthDst == p.EthDst &&
			q.IPSrc == p.IPSrc && q.IPDst == p.IPDst &&
			q.SrcPort == p.SrcPort && q.DstPort == p.DstPort &&
			q.HasVLAN == p.HasVLAN && q.VLANID == p.VLANID
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFieldAccessors(t *testing.T) {
	p := TCP4(0xA, 0xB, 1, 2, 3, 4)
	cases := map[string]uint64{
		FieldEthSrc: 0xA, FieldEthDst: 0xB,
		FieldIPSrc: 1, FieldIPDst: 2,
		FieldTCPSrc: 3, FieldTCPDst: 4,
		FieldEthType: EtherTypeIPv4, FieldIPProto: ProtoTCP, FieldTTL: 64,
	}
	for name, want := range cases {
		got, ok := p.Field(name)
		if !ok || got != want {
			t.Errorf("Field(%s) = %d, %v; want %d", name, got, ok, want)
		}
	}
	if _, ok := p.Field(FieldVLAN); ok {
		t.Errorf("vlan present on untagged packet")
	}
	if _, ok := p.Field("bogus"); ok {
		t.Errorf("unknown field present")
	}
}

func TestSetField(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	if !p.SetField(FieldIPDst, 0xC0000202) || p.IPDst != 0xC0000202 {
		t.Errorf("SetField(ip_dst) failed")
	}
	if !p.SetField(FieldTTL, 63) || p.TTL != 63 {
		t.Errorf("SetField(ttl) failed")
	}
	if !p.SetField(FieldVLAN, 7) || !p.HasVLAN || p.VLANID != 7 {
		t.Errorf("SetField(vlan) did not add the tag")
	}
	if p.SetField("bogus", 1) {
		t.Errorf("unknown field set")
	}
	arp := &Packet{EthType: EtherTypeARP}
	if arp.SetField(FieldIPDst, 1) {
		t.Errorf("ip field set on non-IP packet")
	}
}

func TestRecord(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	r := p.Record()
	for name, want := range map[string]uint64{
		FieldIPSrc: 3, FieldIPDst: 4, FieldTCPDst: 6, FieldEthType: EtherTypeIPv4,
	} {
		if r[name] != want {
			t.Errorf("Record[%s] = %d, want %d", name, r[name], want)
		}
	}
	if _, ok := r[FieldVLAN]; ok {
		t.Errorf("untagged packet record has vlan")
	}
}

func TestFieldWidth(t *testing.T) {
	s := DefaultDecoder().Schema()
	if s.Width(FieldEthDst) != 48 || s.Width(FieldIPDst) != 32 ||
		s.Width(FieldTCPDst) != 16 || s.Width(FieldVLAN) != 12 ||
		s.Width(FieldTTL) != 8 || s.Width("bogus") != 0 {
		t.Errorf("default schema widths wrong")
	}
}

func TestPayloadCarried(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	p.Payload = bytes.Repeat([]byte{0xAB}, 100)
	wire := p.Marshal(nil)
	if len(wire) != EthHeaderLen+IPv4HeaderLen+TCPHeaderLen+100 {
		t.Fatalf("frame length = %d", len(wire))
	}
	q, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Errorf("payload mismatch")
	}
}
