package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestParseNeverPanics feeds random and mutated frames to the parser.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		n := rng.Intn(128)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = Parse(b)
	}
	valid := TCP4(1, 2, 3, 4, 5, 6).Marshal(nil)
	for i := 0; i < 10000; i++ {
		b := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		_, _ = Parse(b)
	}
	// Truncations.
	for cut := 0; cut <= len(valid); cut++ {
		_, _ = Parse(valid[:cut])
	}
}

// TestParseIHLOptions covers IPv4 headers with options (IHL > 5).
func TestParseIHLOptions(t *testing.T) {
	p := TCP4(1, 2, 3, 4, 5, 6)
	wire := p.Marshal(nil)
	// Rewrite the IP header to claim IHL=6 with a 4-byte option,
	// shifting the L4 header accordingly.
	ip := make([]byte, 24)
	copy(ip, wire[EthHeaderLen:EthHeaderLen+20])
	ip[0] = 0x46 // version 4, IHL 6
	// Recompute checksum over 24 bytes.
	ip[10], ip[11] = 0, 0
	cs := Checksum(ip)
	ip[10], ip[11] = byte(cs>>8), byte(cs)
	frame := append(append(append([]byte{}, wire[:EthHeaderLen]...), ip...), wire[EthHeaderLen+20:]...)
	q, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasIPv4 || q.IPDst != 4 {
		t.Errorf("options header parsed wrong: %+v", q)
	}
	if !q.HasL4 || q.SrcPort != 5 {
		t.Errorf("L4 after options parsed wrong: %+v", q)
	}
}

// TestMarshalParseIdempotentOnReparse checks serialize∘parse∘serialize
// stability.
func TestMarshalParseIdempotentOnReparse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		p := TCP4(rng.Uint64(), rng.Uint64(), rng.Uint32(), rng.Uint32(),
			uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)))
		if rng.Intn(2) == 0 {
			p.HasVLAN = true
			p.VLANID = uint16(rng.Intn(1 << 12))
		}
		w1 := p.Marshal(nil)
		q, err := Parse(w1)
		if err != nil {
			t.Fatal(err)
		}
		w2 := q.Marshal(nil)
		if len(w1) != len(w2) {
			t.Fatalf("reserialization changed length: %d vs %d", len(w1), len(w2))
		}
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("reserialization changed byte %d", j)
			}
		}
	}
}

// codecSeeds returns the frames the default-decoder oracle starts from:
// every truncation of a tagged and an untagged TCP frame and of a UDP
// frame, IPv4 options, a bad checksum, a bad version, a TotalLen shorter
// than the frame, and non-IPv4 EtherTypes.
func codecSeeds() [][]byte {
	tcp := TCP4(0x0a0b0c0d0e0f, 0x010203040506, 0xc0a80101, 0x0a000001, 1234, 80)
	tcp.Payload = []byte("payload")
	tagged := *tcp
	tagged.HasVLAN, tagged.VLANID, tagged.VLANPrio = true, 0x123, 5
	udp := *tcp
	udp.Proto = ProtoUDP
	icmp := *tcp
	icmp.Proto, icmp.HasL4 = ProtoICMP, false
	var seeds [][]byte
	for _, p := range []*Packet{tcp, &tagged, &udp} {
		wire := p.Marshal(nil)
		for n := 0; n <= len(wire); n++ {
			seeds = append(seeds, wire[:n])
		}
	}
	seeds = append(seeds, icmp.Marshal(nil))

	// IHL 6: a 4-byte option between the IPv4 and TCP headers.
	wire := tcp.Marshal(nil)
	ip := append(append([]byte(nil), wire[EthHeaderLen:EthHeaderLen+IPv4HeaderLen]...), 1, 1, 1, 1)
	ip[0] = 0x46
	ip[10], ip[11] = 0, 0
	cs := Checksum(ip)
	ip[10], ip[11] = byte(cs>>8), byte(cs)
	seeds = append(seeds, append(append(append([]byte(nil), wire[:EthHeaderLen]...), ip...), wire[EthHeaderLen+IPv4HeaderLen:]...))

	badCsum := tcp.Marshal(nil)
	badCsum[EthHeaderLen+10] ^= 0xff
	badVer := tcp.Marshal(nil)
	badVer[EthHeaderLen] = 0x65
	// TotalLen shorter than the frame: the codec trims the L4 payload (and
	// the minimum-frame padding) at the datagram's end.
	short := tcp.Marshal(nil)
	short[EthHeaderLen+2], short[EthHeaderLen+3] = 0, IPv4HeaderLen+TCPHeaderLen+2
	short[EthHeaderLen+10], short[EthHeaderLen+11] = 0, 0
	cs = Checksum(short[EthHeaderLen : EthHeaderLen+IPv4HeaderLen])
	short[EthHeaderLen+10], short[EthHeaderLen+11] = byte(cs>>8), byte(cs)
	seeds = append(seeds, badCsum, badVer, short)

	for _, et := range []uint16{EtherTypeARP, EtherTypeMPLS, 0x86dd} {
		seeds = append(seeds, (&Packet{EthDst: 1, EthSrc: 2, EthType: et, Payload: []byte{1, 2, 3}}).Marshal(nil))
		tg := &Packet{EthDst: 1, EthSrc: 2, EthType: et, HasVLAN: true, VLANID: 9, Payload: []byte{4}}
		seeds = append(seeds, tg.Marshal(nil))
	}
	return seeds
}

// FuzzDefaultDecoderMatchesCodec holds the default schema's decoder — the
// one every default-schema frame is forwarded through — to the Packet
// codec: on every frame both accept or both reject with the same typed
// reason, and an accepted frame has the same per-header presence, every
// slot equal to its struct field, the same payload and the same
// unknown-next-header verdict. The view is reused across frames, as the
// ingest rings reuse it, so state a parse fails to overwrite shows up too.
func FuzzDefaultDecoderMatchesCodec(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	dec := DefaultDecoder()
	v := dec.NewView()
	prior := codecSeeds()[len(codecSeeds())/2]
	f.Fuzz(func(t *testing.T, frame []byte) {
		_ = dec.ParseInto(v, prior)
		err := dec.ParseInto(v, frame)
		var p Packet
		perr := p.ParseInto(frame)
		if (err == nil) != (perr == nil) || DecodeReasonOf(err) != DecodeReasonOf(perr) {
			t.Fatalf("decoder error %v (%v), codec error %v (%v)", err, DecodeReasonOf(err), perr, DecodeReasonOf(perr))
		}
		if err != nil {
			if v.Present() != 0 {
				t.Fatalf("rejected frame left presence %b", v.Present())
			}
			return
		}
		for hi, want := range []bool{true, p.HasVLAN, p.HasIPv4, p.HasL4} {
			if v.HeaderPresent(hi) != want {
				t.Fatalf("header %d present %v, codec %v", hi, v.HeaderPresent(hi), want)
			}
		}
		for id, name := range defaultNames {
			want, wok := p.Field(name)
			got, ok := v.Get(id)
			if ok != wok || (ok && got != want) {
				t.Fatalf("%s: view (%#x,%v), codec (%#x,%v)", name, got, ok, want, wok)
			}
		}
		if !bytes.Equal(v.Payload(), p.Payload) {
			t.Fatalf("payload %x, codec %x", v.Payload(), p.Payload)
		}
		unknown := p.EthType != EtherTypeIPv4 ||
			(p.HasIPv4 && !p.HasL4 && p.Proto != ProtoTCP && p.Proto != ProtoUDP)
		if v.UnknownNext() != unknown {
			t.Fatalf("unknown next-header %v, codec %v", v.UnknownNext(), unknown)
		}
	})
}
