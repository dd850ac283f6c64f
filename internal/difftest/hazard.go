package difftest

import (
	"fmt"
	"math/rand"

	"manorm/internal/mat"
	"manorm/internal/packet"
)

// PlantRematchHazard builds a program exposing a second caveat the
// differential harness found beyond the paper's Fig. 3: the rematch join
// is dep-first, so the dependency stage applies its rewriting actions
// *before* the rest stage re-matches the dependency's LHS fields — and a
// real datapath re-matches the rewritten header, while the relational
// semantics keeps action attributes in a separate namespace and re-reads
// the original value.
//
// The planted table matches vlan and carries a mod_vlan action whose
// values lie outside every vlan pattern: dec({vlan} -> {mod_vlan})/rematch
// is legal and certified equivalent by the relational layers — and every
// compiled executor drops the traffic, because stage 2 re-matches the
// rewritten vlan. Kind "verdict" with clean relational layers, and kind
// "roundtrip": the rematch variant denormalizes to what the datapath
// forwards, not to the table. Only the datapath reading of a pipeline
// (the executors, and fdd.Fuse behind Denormalize) sees it, which is why
// the generator never pairs a rewriting action with a match on its target
// field.
func PlantRematchHazard(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))
	t, _, _, _ := plantGrid(rng, fmt.Sprintf("hazard%d", seed), packet.FieldVLAN, 12, packet.FieldTCPDst, 16, "mod_vlan")
	return &Program{Seed: seed, Note: fmt.Sprintf("rematch-hazard(seed=%d)", seed), Table: t, Packets: genPackets(rng, t)}
}

// PlantSchemaHazard is the Schemas twin of PlantRematchHazard: a VXLAN
// program matching the VNI and carrying a mod_vxlan_vni rewrite whose
// values lie outside every matched VNI, so the compiled executors drop
// what the relational semantics forwards — now through the programmable
// parser.
func PlantSchemaHazard(seed int64) (*Program, error) {
	return plantVXLAN(seed, "schemahazard", "schema-rematch-hazard", "mod_"+packet.FieldVXLANVNI)
}

// PlantSchemaCaveat is the Schemas twin of PlantCaveat: a VXLAN program
// whose per-entry-distinct out determines the VNI and the inner
// destination MAC, carrying the Fig. 3 decomposition along that
// action-to-match dependency.
func PlantSchemaCaveat(seed int64) (*Program, error) {
	return plantVXLAN(seed, "schemacaveat", "schema-fig3-caveat", "")
}

// plantGrid builds the planted 2×2 table — two groups of the first match
// field by two values of the second, a per-entry-distinct out and, if mod
// names it, a per-group rewrite of the first field to a value it never
// matches — and returns the matched values and the draw of fresh ones.
func plantGrid(rng *rand.Rand, name, f0 string, w0 uint8, f1 string, w1 uint8, mod string) (*mat.Table, [2]uint64, [2]uint64, func(uint8) uint64) {
	used := make(map[uint8]map[uint64]bool)
	draw := func(w uint8) uint64 {
		if used[w] == nil {
			used[w] = make(map[uint64]bool)
		}
		return distinctValue(rng, w, used[w])
	}
	sch := mat.Schema{mat.F(f0, w0), mat.F(f1, w1), mat.A(mod, w0), mat.A("out", 16)}
	if mod == "" {
		sch = append(sch[:2], sch[3])
	}
	t := mat.New(name, sch)
	var g, d, m [2]uint64
	for i := range g {
		g[i], d[i] = draw(w0), draw(w1)
	}
	for i := range m {
		m[i] = draw(w0)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			row := []mat.Cell{mat.Exact(g[i], w0), mat.Exact(d[j], w1), mat.Exact(m[i], w0)}
			if mod == "" {
				row = row[:2]
			}
			t.Add(append(row, mat.Exact(draw(16), 16))...)
		}
	}
	return t, g, d, draw
}

// plantVXLAN builds the VXLAN plants: a VNI × inner MAC grid, hit by four
// frames and missed by one, with the caveat flag when it has no rewrite.
func plantVXLAN(seed int64, name, note, mod string) (*Program, error) {
	graph, err := packet.BuiltinGraph(packet.SchemaVXLAN)
	if err != nil {
		return nil, err
	}
	dec, err := graph.Compile()
	if err != nil {
		return nil, err
	}
	t, vni, mac, draw := plantGrid(rand.New(rand.NewSource(seed)), fmt.Sprintf("%s%d", name, seed),
		packet.FieldVXLANVNI, 24, packet.FieldInnerEthDst, 48, mod)
	t.Provenance = packet.SchemaVXLAN
	view := dec.NewView()
	var frames [][]byte
	emit := func(v, m uint64) {
		view.Reset()
		for h := range dec.Schema().Headers {
			view.MarkPresent(h)
		}
		view.SetName(packet.FieldEthType, packet.EtherTypeIPv4)
		view.SetName("ip_verihl", 0x45)
		view.SetName("ip_ttl", 64)
		view.SetName("ip_proto", packet.ProtoUDP)
		view.SetName("udp_dst", packet.UDPPortVXLAN)
		view.SetName("vxlan_flags", 0x08)
		view.SetName(packet.FieldVXLANVNI, v)
		view.SetName(packet.FieldInnerEthDst, m)
		frames = append(frames, view.Marshal(nil))
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			emit(vni[i], mac[j])
		}
	}
	emit(draw(24), mac[0])
	return &Program{Seed: seed, Note: fmt.Sprintf("%s(seed=%d)", note, seed), Caveat: mod == "", Table: t, Graph: graph, Frames: frames}, nil
}
