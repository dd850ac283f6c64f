// Package packet defines the packets the dataplane substrates process —
// as of the schema redesign, in protocol-independent form.
//
// # Schema model
//
// A HeaderSchema names an ordered set of headers, each an ordered list of
// bit-width fields; the fields flatten into a dense slot space shared by
// every layer above. A ParseGraph programs the parser over a schema in
// the P4 style: states are headers, transitions are keyed on a select
// field (EtherType, IP proto, UDP destination port, ...), and edges only
// move forward in header order so every parse terminates. Compile turns
// a graph into a table-driven Decoder once; per frame, decoding is a loop
// of bounds check → bit-field extraction → one select lookup per header,
// with no per-protocol code.
//
// The decoded form is a FieldView: one uint64 slot per schema field, a
// per-header presence mask, and the trailing payload. Views are created
// once per worker and refilled by Decoder.ParseInto, so the hot path is
// allocation-free; datapaths resolve attribute names to slot indices at
// compile time and read packet state as an array load.
//
// A Binder is the single bridge between mat.Schema attribute names and
// slots: match attributes via Slot, rewriting actions via ActionSlot
// (legacy mod_smac/mod_dmac/mod_vlan aliases plus the generic
// "mod_<field>" convention), and schema-width mat attribute constructors.
//
// # Built-in schemas
//
// The pre-schema Ethernet (optionally 802.1Q-tagged)/IPv4/TCP-UDP stack
// survives as the built-in "default" schema. Its decoder is hand-written
// (VLAN untagging, IHL options, checksum verification, TotalLen trim) and
// fuzzed against the original Packet codec, which also still encodes it
// (checksum recomputation, minimum-frame padding), so default-schema
// behavior is bit-identical to the fixed-struct era; its slot order is
// the ID* constant order. VXLAN, MPLS and GTP-U
// ship as worked examples (BuiltinDecoder), each carried by a usecase
// experiment in internal/usecases.
//
// Every datapath forwards FieldViews. The legacy Packet struct remains as
// the default decoder's oracle and encoder, for trafficgen's frame
// construction, and behind the Packet adapters the benchmark calls.
package packet
