package packet

import (
	"math/rand"
	"testing"
)

// TestDefaultSchemaMatchesFieldIDs pins the contract the default decoder
// and the Packet adapters rely on: the default schema's slot order is
// exactly the ID* constant order, with the canonical names and widths.
func TestDefaultSchemaMatchesFieldIDs(t *testing.T) {
	s := DefaultDecoder().Schema()
	if s.NumSlots() != NumFieldIDs {
		t.Fatalf("default schema has %d slots, want %d", s.NumSlots(), NumFieldIDs)
	}
	for id, name := range defaultNames {
		if s.Slot(name) != id {
			t.Errorf("slot of %q is %d, want ID %d", name, s.Slot(name), id)
		}
		if s.SlotWidth(id) != defaultWidths[id] || s.Width(name) != defaultWidths[id] {
			t.Errorf("slot %d (%q) width %d, want %d", id, name, s.SlotWidth(id), defaultWidths[id])
		}
	}
}

// TestDefaultSchemaBitIdentical proves the default schema's decoder and
// encoder agree exactly with the legacy Packet codec on tagged, untagged
// and non-IP frames.
func TestDefaultSchemaBitIdentical(t *testing.T) {
	dec := DefaultDecoder()
	pkts := []*Packet{
		TCP4(0x0a0b0c0d0e0f, 0x010203040506, 0xc0a80101, 0x0a000001, 1234, 80),
		{EthDst: 0x111111111111, EthSrc: 0x222222222222, EthType: EtherTypeARP, Payload: []byte{1, 2, 3}},
	}
	tagged := TCP4(1, 2, 3, 4, 5, 6)
	tagged.HasVLAN = true
	tagged.VLANID = 42
	pkts = append(pkts, tagged)

	v := dec.NewView()
	for i, p := range pkts {
		wire := p.Marshal(nil)
		if err := dec.ParseInto(v, wire); err != nil {
			t.Fatalf("pkt %d: ParseInto: %v", i, err)
		}
		var lp Packet
		if err := lp.ParseInto(wire); err != nil {
			t.Fatalf("pkt %d: legacy ParseInto: %v", i, err)
		}
		for id, name := range defaultNames {
			lv, lok := lp.Field(name)
			sv, sok := v.Get(id)
			if lok != sok || (lok && lv != sv) {
				t.Errorf("pkt %d slot %d (%s): legacy (%d,%v) view (%d,%v)", i, id, name, lv, lok, sv, sok)
			}
		}
		reWire := v.Marshal(nil)
		legacyWire := lp.Marshal(nil)
		if string(reWire) != string(legacyWire) {
			t.Errorf("pkt %d: view Marshal differs from legacy Marshal", i)
		}
	}
}

// fillChain builds a view with the full header chain present and random
// field values, then forces the select fields so the graph re-parses the
// same chain. Used by the round-trip property tests.
func fillChain(t testing.TB, dec *Decoder, rng *rand.Rand, selects map[string]uint64, headers []string) *FieldView {
	t.Helper()
	v := dec.NewView()
	s := dec.Schema()
	for _, h := range headers {
		hi := s.HeaderIndex(h)
		if hi < 0 {
			t.Fatalf("unknown header %q", h)
		}
		v.MarkPresent(hi)
	}
	for i := 0; i < s.NumSlots(); i++ {
		if v.HeaderPresent(s.HeaderOfSlot(i)) {
			v.Set(i, rng.Uint64())
		}
	}
	for name, val := range selects {
		if !v.SetName(name, val) {
			t.Fatalf("cannot set select %q", name)
		}
	}
	v.SetPayload([]byte{0xde, 0xad, 0xbe, 0xef})
	return v
}

// shippedChains lists, per shipped generic schema, the header chains its
// parse graph accepts whole and the select values that steer a frame down
// them; a schema's first entry is its canonical full-chain frame
// (shippedWire).
var shippedChains = []struct {
	schema  string
	headers []string
	selects map[string]uint64
}{
	{SchemaVXLAN,
		[]string{"eth", "ipv4", "udp", "vxlan", "inner_eth"},
		map[string]uint64{"eth_type": EtherTypeIPv4, "ip_proto": ProtoUDP, "udp_dst": UDPPortVXLAN}},
	{SchemaMPLS,
		[]string{"eth", "mpls", "ipv4"},
		map[string]uint64{"eth_type": EtherTypeMPLS, FieldMPLSBoS: 1}},
	{SchemaMPLS,
		[]string{"eth", "mpls", "mpls2", "ipv4"},
		map[string]uint64{"eth_type": EtherTypeMPLS, FieldMPLSBoS: 0, "mpls2_s": 1}},
	{SchemaGTPU,
		[]string{"eth", "ipv4", "udp", "gtpu", "inner_ipv4"},
		map[string]uint64{"eth_type": EtherTypeIPv4, "ip_proto": ProtoUDP, "udp_dst": UDPPortGTPU, "gtpu_type": GTPMsgGPDU}},
}

// shippedWire returns one well-formed full-chain frame of a shipped
// schema.
func shippedWire(t testing.TB, name string) []byte {
	t.Helper()
	if name == SchemaDefault {
		return TCP4(1, 2, 3, 4, 5, 6).Marshal(nil)
	}
	for _, c := range shippedChains {
		if c.schema == name {
			return fillChain(t, mustDecoder(t, name), rand.New(rand.NewSource(1)), c.selects, c.headers).Marshal(nil)
		}
	}
	t.Fatalf("no full-chain frame for schema %q", name)
	return nil
}

// TestShippedSchemaRoundTrip is the Parse→Marshal→Parse property for
// every shipped generic schema: re-parsing an encoded view yields the
// same slots, presence and payload, and re-encoding yields the same
// bytes.
func TestShippedSchemaRoundTrip(t *testing.T) {
	for _, tc := range shippedChains {
		dec := mustDecoder(t, tc.schema)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 50; trial++ {
			v := fillChain(t, dec, rng, tc.selects, tc.headers)
			wire := v.Marshal(nil)
			got, err := dec.Parse(wire)
			if err != nil {
				t.Fatalf("%s trial %d: re-parse: %v", tc.schema, trial, err)
			}
			if got.present != v.present {
				t.Fatalf("%s trial %d: presence %b != %b", tc.schema, trial, got.present, v.present)
			}
			for i := 0; i < dec.Schema().NumSlots(); i++ {
				want, wok := v.Get(i)
				have, hok := got.Get(i)
				if want != have || wok != hok {
					t.Errorf("%s trial %d: slot %d (%s): (%#x,%v) != (%#x,%v)",
						tc.schema, trial, i, dec.Schema().SlotName(i), have, hok, want, wok)
				}
			}
			if string(got.Payload()) != string(v.Payload()) {
				t.Errorf("%s trial %d: payload mismatch", tc.schema, trial)
			}
			if string(got.Marshal(nil)) != string(wire) {
				t.Errorf("%s trial %d: re-encode differs", tc.schema, trial)
			}
		}
	}
}

// TestDecoderTruncation covers truncated and malformed frames: too short
// for the start header errors, truncation mid-graph stops cleanly with
// the remainder as payload.
func TestDecoderTruncation(t *testing.T) {
	dec, err := BuiltinDecoder(SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	full := fillChain(t, dec, rng,
		map[string]uint64{"eth_type": EtherTypeIPv4, "ip_proto": ProtoUDP, "udp_dst": UDPPortVXLAN},
		[]string{"eth", "ipv4", "udp", "vxlan", "inner_eth"}).Marshal(nil)

	v := dec.NewView()
	for _, n := range []int{0, 1, 13} {
		if err := dec.ParseInto(v, full[:n]); err == nil {
			t.Errorf("%d-byte frame: want error, got none", n)
		}
	}
	// Ethernet complete, IPv4 truncated: accept with eth only.
	if err := dec.ParseInto(v, full[:20]); err != nil {
		t.Fatalf("truncated ipv4: %v", err)
	}
	if !v.HeaderPresent(0) || v.HeaderPresent(1) {
		t.Errorf("truncated ipv4: presence mask %b", v.present)
	}
	if len(v.Payload()) != 6 {
		t.Errorf("truncated ipv4: payload %d bytes, want 6", len(v.Payload()))
	}
	// Every prefix must parse without panicking and never mark a header
	// whose bytes are missing.
	sizes := []int{14, 20, 8, 8, 14} // eth, ipv4, udp, vxlan, inner_eth
	for n := 14; n <= len(full); n++ {
		if err := dec.ParseInto(v, full[:n]); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		have := 0
		for hi := range sizes {
			if v.HeaderPresent(hi) {
				have += sizes[hi]
			}
		}
		if have > n {
			t.Fatalf("prefix %d: presence claims %d bytes", n, have)
		}
	}
}

// TestParseGraphValidation exercises compile-time rejection of malformed
// graphs.
func TestParseGraphValidation(t *testing.T) {
	base := func() *HeaderSchema {
		s, err := NewHeaderSchema("t", ethHeader("a", "a_"), ethHeader("b", "b_"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		g    *ParseGraph
	}{
		{"unknown start", &ParseGraph{Schema: base(), Start: "nope"}},
		{"unknown select", &ParseGraph{Schema: base(), Start: "a",
			States: map[string]State{"a": {Select: "ghost", Transitions: []Transition{{Value: 1, Next: "b"}}}}}},
		{"backward edge", &ParseGraph{Schema: base(), Start: "a",
			States: map[string]State{"b": {Select: "b_eth_type", Transitions: []Transition{{Value: 1, Next: "a"}}}}}},
		{"select from later header", &ParseGraph{Schema: base(), Start: "a",
			States: map[string]State{"a": {Select: "b_eth_type", Transitions: []Transition{{Value: 1, Next: "b"}}}}}},
		{"transitions without select", &ParseGraph{Schema: base(), Start: "a",
			States: map[string]State{"a": {Transitions: []Transition{{Value: 1, Next: "b"}}}}}},
	}
	for _, tc := range cases {
		if _, err := tc.g.Compile(); err == nil {
			t.Errorf("%s: compiled, want error", tc.name)
		}
	}
	if _, err := NewHeaderSchema("odd", Header{Name: "h", Fields: []FieldSpec{{Name: "x", Width: 7}}}); err == nil {
		t.Error("7-bit header accepted, want byte-multiple error")
	}
	if _, err := NewHeaderSchema("dup", ethHeader("a", ""), ethHeader("b", "")); err == nil {
		t.Error("duplicate field names accepted")
	}
}

// TestFieldViewAllocs is the zero-alloc guard for the schema hot path:
// ParseInto into a reused view, slot reads and slot writes must not
// allocate, for the generic and the legacy (default) decoder alike — and
// neither must a damaged frame: one cut below the first header (a typed
// truncation, classified through DecodeReasonOf as the ingest counters
// do) and one cut mid-graph (an accept with fewer headers).
func TestFieldViewAllocs(t *testing.T) {
	for _, name := range BuiltinSchemaNames() {
		dec := mustDecoder(t, name)
		wire := shippedWire(t, name)
		below, mid := wire[:EthHeaderLen-1], wire[:EthHeaderLen+9]
		v := dec.NewView()
		var sink uint64
		allocs := testing.AllocsPerRun(200, func() {
			if DecodeReasonOf(dec.ParseInto(v, below)) != ReasonTruncated {
				t.Fatal("frame cut below the first header not rejected as truncated")
			}
			for _, f := range [][]byte{mid, wire} {
				if err := dec.ParseInto(v, f); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < v.Schema().NumSlots(); i++ {
					if x, ok := v.Get(i); ok {
						sink += x
					}
				}
				v.Set(0, sink)
			}
		})
		if allocs != 0 {
			t.Errorf("schema %s: %v allocs/op on ParseInto+Get+Set, want 0", name, allocs)
		}
	}
}

// TestBinder pins the attribute↔slot bridge: legacy aliases, the generic
// mod_<field> convention and schema-width column minting.
func TestBinder(t *testing.T) {
	b := DefaultBinder()
	if got := b.ActionTarget("mod_smac"); got != FieldEthSrc {
		t.Errorf("mod_smac -> %q", got)
	}
	if got := b.ActionTarget("mod_dmac"); got != FieldEthDst {
		t.Errorf("mod_dmac -> %q", got)
	}
	if got := b.ActionTarget("mod_vlan"); got != FieldVLAN {
		t.Errorf("mod_vlan -> %q", got)
	}
	if b.ActionSlot("mod_smac") != IDEthSrc {
		t.Error("mod_smac slot")
	}
	// The bridge must agree with RewriteTarget on every attribute whose
	// target is in the schema, and keep the name of any other.
	for _, attr := range []string{"mod_smac", "mod_dmac", "mod_vlan", "mod_" + FieldIPSrc, FieldIPDst} {
		if b.ActionTarget(attr) != RewriteTarget(attr) {
			t.Errorf("binder and RewriteTarget disagree on %q", attr)
		}
	}
	if got := RewriteTarget("mod_" + FieldIPSrc); got != FieldIPSrc {
		t.Errorf("RewriteTarget(mod_ip_src) = %q", got)
	}
	if got := b.ActionTarget("mod_nosuch"); got != "mod_nosuch" {
		t.Errorf("mod_nosuch -> %q, want the name itself", got)
	}
	vx := NewBinder(mustDecoder(t, SchemaVXLAN).Schema())
	if got := vx.ActionTarget("mod_" + FieldVXLANVNI); got != FieldVXLANVNI {
		t.Errorf("mod_vxlan_vni -> %q", got)
	}
	if vx.ActionSlot("mod_"+FieldInnerEthDst) != vx.Slot(FieldInnerEthDst) {
		t.Error("mod_inner_eth_dst slot")
	}
	cols := vx.Columns(FieldVXLANVNI, FieldInnerEthDst)
	if len(cols) != 2 || cols[0].Width != 24 || cols[1].Width != 48 {
		t.Errorf("Columns widths: %+v", cols)
	}
}

func mustDecoder(t testing.TB, name string) *Decoder {
	t.Helper()
	d, err := BuiltinDecoder(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBitCodec round-trips the bit-packing primitives across unaligned
// widths.
func TestBitCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		widths := []uint8{uint8(rng.Intn(20) + 1), uint8(rng.Intn(64) + 1), uint8(rng.Intn(8) + 1)}
		total := 0
		for _, w := range widths {
			total += int(w)
		}
		buf := make([]byte, (total+7)/8)
		vals := make([]uint64, len(widths))
		off := 0
		for i, w := range widths {
			vals[i] = rng.Uint64() & widthMask(w)
			writeBits(buf, off, w, vals[i])
			off += int(w)
		}
		off = 0
		for i, w := range widths {
			if got := readBits(buf, off, w); got != vals[i] {
				t.Fatalf("trial %d field %d: %#x != %#x", trial, i, got, vals[i])
			}
			off += int(w)
		}
	}
}
