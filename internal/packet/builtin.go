package packet

import (
	"fmt"
	"sort"
	"sync"
)

// Built-in schema names, selectable via the CLIs' -schema flag.
const (
	SchemaDefault = "default"
	SchemaVXLAN   = "vxlan"
	SchemaMPLS    = "mpls"
	SchemaGTPU    = "gtpu"
)

// Well-known select values used by the shipped parse graphs.
const (
	UDPPortVXLAN  = 4789   // IANA VXLAN destination port
	UDPPortGTPU   = 2152   // GTP-U destination port
	GTPMsgGPDU    = 255    // GTP-U message type carrying an encapsulated PDU
	EtherTypeMPLS = 0x8847 // MPLS unicast
)

// Field names introduced by the shipped VXLAN/MPLS/GTP-U schemas (the
// default schema keeps the canonical Field* names from fields.go).
const (
	FieldVXLANVNI    = "vxlan_vni"
	FieldInnerEthDst = "inner_eth_dst"
	FieldInnerEthSrc = "inner_eth_src"
	FieldMPLSLabel   = "mpls_label"
	FieldMPLSTC      = "mpls_tc"
	FieldMPLSBoS     = "mpls_s"
	FieldMPLSTTL     = "mpls_ttl"
	FieldGTPUTEID    = "gtpu_teid"
	FieldInnerIPSrc  = "inner_ip_src"
	FieldInnerIPDst  = "inner_ip_dst"
)

// Header indices of the default schema (its presence bits).
const (
	defaultHdrEth = iota
	defaultHdrVLAN
	defaultHdrIPv4
	defaultHdrL4
)

// ethHeader returns a generic Ethernet header with the given field-name
// prefix ("" yields the canonical eth_dst/eth_src/eth_type).
func ethHeader(name, prefix string) Header {
	return Header{Name: name, Fields: []FieldSpec{
		{Name: prefix + "eth_dst", Width: 48},
		{Name: prefix + "eth_src", Width: 48},
		{Name: prefix + "eth_type", Width: 16},
	}}
}

// ipv4Header returns a full fixed-20-byte IPv4 header (no options) with
// the given field-name prefix.
func ipv4Header(name, prefix string) Header {
	return Header{Name: name, Fields: []FieldSpec{
		{Name: prefix + "ip_verihl", Width: 8},
		{Name: prefix + "ip_tos", Width: 8},
		{Name: prefix + "ip_len", Width: 16},
		{Name: prefix + "ip_id", Width: 16},
		{Name: prefix + "ip_frag", Width: 16},
		{Name: prefix + "ip_ttl", Width: 8},
		{Name: prefix + "ip_proto", Width: 8},
		{Name: prefix + "ip_csum", Width: 16},
		{Name: prefix + "ip_src", Width: 32},
		{Name: prefix + "ip_dst", Width: 32},
	}}
}

// udpHeader returns a UDP header with the given field-name prefix.
func udpHeader(name, prefix string) Header {
	return Header{Name: name, Fields: []FieldSpec{
		{Name: prefix + "udp_src", Width: 16},
		{Name: prefix + "udp_dst", Width: 16},
		{Name: prefix + "udp_len", Width: 16},
		{Name: prefix + "udp_csum", Width: 16},
	}}
}

// mplsHeader returns one 32-bit MPLS label-stack entry.
func mplsHeader(name, prefix string) Header {
	return Header{Name: name, Fields: []FieldSpec{
		{Name: prefix + "label", Width: 20},
		{Name: prefix + "tc", Width: 3},
		{Name: prefix + "s", Width: 1},
		{Name: prefix + "ttl", Width: 8},
	}}
}

// defaultGraph builds the default schema: the canonical
// Ethernet/VLAN/IPv4/L4 field set, decoded by a hand-written decoder
// (FieldView.parseDefault) and encoded by the Packet codec for
// bit-identical pre-schema behavior. Its slot order is the ID* constant
// order, so slot IDEthDst is eth_dst and so on.
func defaultGraph() *ParseGraph {
	s := &HeaderSchema{
		Name:   SchemaDefault,
		legacy: true,
		Headers: []Header{
			{Name: "eth", Fields: []FieldSpec{
				{Name: FieldEthDst, Width: 48},
				{Name: FieldEthSrc, Width: 48},
				{Name: FieldEthType, Width: 16},
			}},
			{Name: "vlan", Fields: []FieldSpec{
				{Name: FieldVLAN, Width: 12},
			}},
			{Name: "ipv4", Fields: []FieldSpec{
				{Name: FieldIPSrc, Width: 32},
				{Name: FieldIPDst, Width: 32},
				{Name: FieldIPProto, Width: 8},
				{Name: FieldTTL, Width: 8},
			}},
			{Name: "l4", Fields: []FieldSpec{
				{Name: FieldTCPSrc, Width: 16},
				{Name: FieldTCPDst, Width: 16},
			}},
		},
	}
	// The states document the logical parse chain; parseDefault does the
	// actual steering (including the IHL/checksum handling the
	// generic decoder does not model).
	return &ParseGraph{
		Schema: s,
		Start:  "eth",
		States: map[string]State{
			"eth":  {Select: FieldEthType, Transitions: []Transition{{Value: EtherTypeVLAN, Next: "vlan"}, {Value: EtherTypeIPv4, Next: "ipv4"}}},
			"vlan": {Select: FieldEthType, Transitions: []Transition{{Value: EtherTypeIPv4, Next: "ipv4"}}},
			"ipv4": {Select: FieldIPProto, Transitions: []Transition{{Value: ProtoTCP, Next: "l4"}, {Value: ProtoUDP, Next: "l4"}}},
		},
	}
}

// vxlanGraph builds the VXLAN overlay schema: outer
// Ethernet/IPv4/UDP(4789)/VXLAN, then the inner Ethernet frame of the
// tenant. Programs match the 24-bit VNI and inner MACs.
func vxlanGraph() *ParseGraph {
	s := &HeaderSchema{
		Name: SchemaVXLAN,
		Headers: []Header{
			ethHeader("eth", ""),
			ipv4Header("ipv4", ""),
			udpHeader("udp", ""),
			{Name: "vxlan", Fields: []FieldSpec{
				{Name: "vxlan_flags", Width: 8},
				{Name: "vxlan_rsvd", Width: 24},
				{Name: FieldVXLANVNI, Width: 24},
				{Name: "vxlan_rsvd2", Width: 8},
			}},
			ethHeader("inner_eth", "inner_"),
		},
	}
	return &ParseGraph{
		Schema: s,
		Start:  "eth",
		States: map[string]State{
			"eth":   {Select: "eth_type", Transitions: []Transition{{Value: EtherTypeIPv4, Next: "ipv4"}}},
			"ipv4":  {Select: "ip_proto", Transitions: []Transition{{Value: ProtoUDP, Next: "udp"}}},
			"udp":   {Select: "udp_dst", Transitions: []Transition{{Value: UDPPortVXLAN, Next: "vxlan"}}},
			"vxlan": {Default: "inner_eth"},
		},
	}
}

// mplsGraph builds an MPLS schema: Ethernet, up to two label-stack
// entries steered by the bottom-of-stack bit, then IPv4.
func mplsGraph() *ParseGraph {
	s := &HeaderSchema{
		Name: SchemaMPLS,
		Headers: []Header{
			ethHeader("eth", ""),
			mplsHeader("mpls", "mpls_"),
			mplsHeader("mpls2", "mpls2_"),
			ipv4Header("ipv4", ""),
		},
	}
	return &ParseGraph{
		Schema: s,
		Start:  "eth",
		States: map[string]State{
			"eth":   {Select: "eth_type", Transitions: []Transition{{Value: EtherTypeMPLS, Next: "mpls"}}},
			"mpls":  {Select: FieldMPLSBoS, Transitions: []Transition{{Value: 1, Next: "ipv4"}, {Value: 0, Next: "mpls2"}}},
			"mpls2": {Select: "mpls2_s", Transitions: []Transition{{Value: 1, Next: "ipv4"}}},
		},
	}
}

// gtpuGraph builds a GTP-U mobile-core schema: outer
// Ethernet/IPv4/UDP(2152)/GTP-U, then the encapsulated user-plane IPv4
// packet. Programs match the 32-bit TEID and inner addresses.
func gtpuGraph() *ParseGraph {
	s := &HeaderSchema{
		Name: SchemaGTPU,
		Headers: []Header{
			ethHeader("eth", ""),
			ipv4Header("ipv4", ""),
			udpHeader("udp", ""),
			{Name: "gtpu", Fields: []FieldSpec{
				{Name: "gtpu_flags", Width: 8},
				{Name: "gtpu_type", Width: 8},
				{Name: "gtpu_len", Width: 16},
				{Name: FieldGTPUTEID, Width: 32},
			}},
			ipv4Header("inner_ipv4", "inner_"),
		},
	}
	return &ParseGraph{
		Schema: s,
		Start:  "eth",
		States: map[string]State{
			"eth":  {Select: "eth_type", Transitions: []Transition{{Value: EtherTypeIPv4, Next: "ipv4"}}},
			"ipv4": {Select: "ip_proto", Transitions: []Transition{{Value: ProtoUDP, Next: "udp"}}},
			"udp":  {Select: "udp_dst", Transitions: []Transition{{Value: UDPPortGTPU, Next: "gtpu"}}},
			"gtpu": {Select: "gtpu_type", Transitions: []Transition{{Value: GTPMsgGPDU, Next: "inner_ipv4"}}},
		},
	}
}

var builtins = map[string]func() *ParseGraph{
	SchemaDefault: defaultGraph,
	SchemaVXLAN:   vxlanGraph,
	SchemaMPLS:    mplsGraph,
	SchemaGTPU:    gtpuGraph,
}

var (
	builtinMu  sync.Mutex
	builtinDec = map[string]*Decoder{}
)

// BuiltinSchemaNames lists the shipped schemas, default first.
func BuiltinSchemaNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		if n != SchemaDefault {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{SchemaDefault}, names...)
}

// BuiltinDecoder returns the cached compiled decoder of a shipped schema.
func BuiltinDecoder(name string) (*Decoder, error) {
	builtinMu.Lock()
	defer builtinMu.Unlock()
	if d, ok := builtinDec[name]; ok {
		return d, nil
	}
	mk, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("packet: unknown schema %q (have %v)", name, BuiltinSchemaNames())
	}
	d, err := mk().Compile()
	if err != nil {
		return nil, err
	}
	builtinDec[name] = d
	return d, nil
}

// BuiltinGraph returns the parse graph of a shipped schema (compiled and
// cached; the graph's Schema is initialized).
func BuiltinGraph(name string) (*ParseGraph, error) {
	d, err := BuiltinDecoder(name)
	if err != nil {
		return nil, err
	}
	return d.graph, nil
}

// DefaultDecoder returns the default schema's decoder; it always
// compiles.
var DefaultDecoder = sync.OnceValue(func() *Decoder {
	d, err := BuiltinDecoder(SchemaDefault)
	if err != nil {
		panic(err)
	}
	return d
})
