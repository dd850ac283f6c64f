package packet

import "testing"

// defaultNames lists the default schema's fields in ID order.
var defaultNames = []string{
	FieldEthDst, FieldEthSrc, FieldEthType, FieldVLAN, FieldIPSrc,
	FieldIPDst, FieldIPProto, FieldTTL, FieldTCPSrc, FieldTCPDst,
}

// defaultWidths lists their bit widths, in the same order.
var defaultWidths = []uint8{48, 48, 16, 12, 32, 32, 8, 8, 16, 16}

// A default view filled from a Packet must read, at every ID slot, what
// Packet.Field reads for that name — on packets with and without the
// optional layers — and StorePacket must carry slot writes back.
func TestFieldIDAgreesWithField(t *testing.T) {
	pkts := []*Packet{
		TCP4(0x0a, 0x0b, 0xC0000201, 0xC0000202, 1234, 80),
		{EthDst: 1, EthSrc: 2, EthType: 0x0800}, // no VLAN/IPv4/L4 layers
	}
	pkts[0].HasVLAN = true
	pkts[0].VLANID = 7
	v := DefaultDecoder().NewView()
	for _, p := range pkts {
		v.LoadPacket(p)
		for id, n := range defaultNames {
			wv, wok := p.Field(n)
			gv, gok := v.Get(id)
			if wv != gv || wok != gok {
				t.Fatalf("field %q: Field=(%d,%v) slot %d=(%d,%v)", n, wv, wok, id, gv, gok)
			}
		}
		q := *p
		for id := range defaultNames {
			v.Set(id, 0x5)
		}
		v.StorePacket(&q)
		for _, n := range defaultNames {
			want, ok := p.Field(n)
			if ok {
				want = 0x5
			}
			if got, _ := q.Field(n); got != want {
				t.Fatalf("field %q after StorePacket = %d, want %d", n, got, want)
			}
		}
	}
	if _, ok := v.Get(-1); ok {
		t.Fatalf("Get(-1) should report absent")
	}
}
