package difftest

import (
	"fmt"
	"math/rand"
	"slices"

	"manorm/internal/mat"
	"manorm/internal/packet"
)

// The generator's envelope, sized so that one program's full
// differential check (all variants × all models × oracle) stays in the
// low milliseconds — mafuzz runs thousands of them: 2–4 match columns,
// up to 2 rewriting actions besides the always-present "out", up to 12
// entries before deduplication and 8–20 packets.
const (
	minFields, maxFields   = 2, 4
	maxExtraActions        = 2
	maxEntries             = 12
	minPackets, maxPackets = 8, 20
)

// attrSpec is one choosable schema attribute.
type attrSpec struct {
	name  string
	width uint8
	// target is the canonical packet field a rewriting action writes
	// ("" for match fields and for "out").
	target string
}

// fieldPool lists the match fields the generator draws from. eth_type and
// ip_proto are excluded: generated packets are always Ethernet/IPv4/TCP,
// so those fields are constant and matching them adds nothing.
var fieldPool = []attrSpec{
	{name: packet.FieldEthSrc, width: 48},
	{name: packet.FieldEthDst, width: 48},
	{name: packet.FieldVLAN, width: 12},
	{name: packet.FieldIPSrc, width: 32},
	{name: packet.FieldIPDst, width: 32},
	{name: packet.FieldTTL, width: 8},
	{name: packet.FieldTCPSrc, width: 16},
	{name: packet.FieldTCPDst, width: 16},
}

// actionPool lists the optional rewriting actions (the dataplane maps
// them onto header fields; see internal/dataplane). mod_ttl is excluded
// because its decrement semantics has no relational counterpart.
var actionPool = []attrSpec{
	{name: "mod_vlan", width: 12, target: packet.FieldVLAN},
	{name: "mod_smac", width: 48, target: packet.FieldEthSrc},
	{name: "mod_dmac", width: 48, target: packet.FieldEthDst},
}

// mask returns the low-width-bits mask; prefixMask selects the top plen
// bits of a width-bit value.
func mask(width uint8) uint64 { return 1<<width - 1 }

func prefixMask(plen, width uint8) uint64 { return mask(width) &^ mask(width-min(plen, width)) }

// cellPool builds a pool of pairwise-disjoint match patterns for one
// column, mixing exact values with prefixes of varying length.
// Disjointness is a soundness constraint: the OVS megaflow cache (see the
// trace-soundness note in internal/dataplane) is exact only for tables
// whose per-column patterns are pairwise disjoint or equal, and then two
// entries overlap iff their match rows are identical, so a deduplicated
// table never hits the ambiguity error the Fig. 3 plants are for.
func cellPool(rng *rand.Rand, width uint8, minCells int, allowWildcard bool) []mat.Cell {
	if allowWildcard && rng.Float64() < 0.15 {
		return []mat.Cell{mat.Any()}
	}
	n := minCells + rng.Intn(4)
	var cells []mat.Cell
	for tries := 0; len(cells) < n && tries < 8*n; tries++ {
		plen := width - uint8(rng.Intn(int(min(8, width))))
		if rng.Float64() < 0.5 {
			plen = width // bias toward exact matches
		}
		cells = addDisjoint(cells, mat.Prefix(rng.Uint64(), plen, width), width)
	}
	// Top up with sequential exact values if random draws kept colliding,
	// so minCells is a guarantee, not a hope.
	for v := uint64(0); len(cells) < minCells; v++ {
		cells = addDisjoint(cells, mat.Exact(v, width), width)
	}
	return cells
}

// addDisjoint appends c to cells unless it overlaps one of them.
func addDisjoint(cells []mat.Cell, c mat.Cell, width uint8) []mat.Cell {
	if slices.ContainsFunc(cells, func(o mat.Cell) bool { return c.Overlaps(o, width) }) {
		return cells
	}
	return append(cells, c)
}

// distinctValue draws an exact width-bit value not yet in used, marking
// it used.
func distinctValue(rng *rand.Rand, width uint8, used map[uint64]bool) uint64 {
	for {
		v := rng.Uint64() & mask(width)
		if !used[v] {
			used[v] = true
			return v
		}
	}
}

// Generate produces one seeded, deterministic program: a 1NF universal
// table with planted field→action dependencies (so the normalizer has
// structure to decompose) and a packet batch biased toward the installed
// entries. The same seed and config always produce the same program.
func Generate(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))

	// Schema: nf match fields, "out", and extra rewriting actions whose
	// target field is not itself matched (a set-field into a field a
	// later stage re-matches would change the match result mid-pipeline —
	// real switches behave that way, the relational semantics does not;
	// see the hazard reproducer in testdata/corpus).
	nf := minFields + rng.Intn(maxFields-minFields+1)
	perm := rng.Perm(len(fieldPool))
	fields := make([]attrSpec, nf)
	matched := make(map[string]bool, nf)
	for i := 0; i < nf; i++ {
		fields[i] = fieldPool[perm[i]]
		matched[fields[i].name] = true
	}
	acts := []attrSpec{{name: "out", width: 16}}
	for _, i := range rng.Perm(len(actionPool)) {
		a := actionPool[i]
		if len(acts)-1 >= maxExtraActions || matched[a.target] {
			continue
		}
		if rng.Float64() < 0.5 {
			acts = append(acts, a)
		}
	}

	t := genTable(rng, fmt.Sprintf("fuzz%d", seed), fields, acts)
	return &Program{Seed: seed, Note: fmt.Sprintf("gen(seed=%d)", seed), Table: t, Packets: genPackets(rng, t)}
}

// genTable fills a universal table over the given match fields and
// actions. Entries cluster on fields[0]'s cell, and a random subset of the
// actions is constant per group — planting {fields[0]} → {actions...}
// dependencies for the normalizer to find.
func genTable(rng *rand.Rand, name string, fields, acts []attrSpec) *mat.Table {
	sch := make(mat.Schema, 0, len(fields)+len(acts))
	for _, f := range fields {
		sch = append(sch, mat.F(f.name, f.width))
	}
	for _, a := range acts {
		sch = append(sch, mat.A(a.name, a.width))
	}
	t := mat.New(name, sch)

	pools := make([][]mat.Cell, len(fields))
	for i, f := range fields {
		pools[i] = cellPool(rng, f.width, 2, true)
	}
	G := 1 + rng.Intn(min(3, len(pools[0])))
	determined := make([]bool, len(acts))
	for ai := range acts {
		p := 0.6
		if ai == 0 {
			p = 0.5 // "out"
		}
		determined[ai] = rng.Float64() < p
	}
	groupActs := make([][]uint64, G)
	for g := 0; g < G; g++ {
		groupActs[g] = make([]uint64, len(acts))
		for ai, a := range acts {
			groupActs[g][ai] = rng.Uint64() & mask(a.width)
		}
	}

	ne := 2 + rng.Intn(maxEntries-1)
	seen := make(map[string]bool, ne)
	for k := 0; k < ne; k++ {
		g := rng.Intn(G)
		cells := make([]mat.Cell, 0, len(sch))
		cells = append(cells, pools[0][g])
		for fi := 1; fi < len(fields); fi++ {
			cells = append(cells, pools[fi][rng.Intn(len(pools[fi]))])
		}
		key := fmt.Sprint(cells)
		if seen[key] {
			continue
		}
		seen[key] = true
		for ai, a := range acts {
			v := rng.Uint64() & mask(a.width)
			if determined[ai] {
				v = groupActs[g][ai]
			}
			cells = append(cells, mat.Exact(v, a.width))
		}
		t.Add(cells...)
	}
	dropAmbiguous(t)
	return t
}

// dropAmbiguous removes entries until no ambiguous pair remains. Under
// the disjoint-column discipline this never fires; it is defense in depth
// so a generator bug cannot masquerade as a dataplane divergence.
func dropAmbiguous(t *mat.Table) {
	for {
		pairs := t.AmbiguousPairs()
		if len(pairs) == 0 {
			return
		}
		i := pairs[0][1]
		t.Entries = append(t.Entries[:i], t.Entries[i+1:]...)
	}
}

// genPackets builds the input batch: full-stack Ethernet/VLAN/IPv4/TCP
// packets (every canonical field present, so the relational record and
// the dataplane agree on field presence), with values biased into the
// table's match patterns and round-tripped through Marshal/Parse so the
// wire frame and the in-memory packet are byte-for-byte consistent.
func genPackets(rng *rand.Rand, t *mat.Table) []*packet.Packet {
	np := minPackets + rng.Intn(maxPackets-minPackets+1)
	pkts := make([]*packet.Packet, 0, np)
	fieldIdx := t.Schema.Fields()
	for i := 0; i < np; i++ {
		p := &packet.Packet{
			EthDst:  rng.Uint64() & mask(48),
			EthSrc:  rng.Uint64() & mask(48),
			EthType: packet.EtherTypeIPv4,
			HasVLAN: true,
			VLANID:  uint16(rng.Uint64() & 0x0FFF),
			HasIPv4: true,
			TTL:     uint8(1 + rng.Intn(255)),
			Proto:   packet.ProtoTCP,
			IPSrc:   uint32(rng.Uint64()),
			IPDst:   uint32(rng.Uint64()),
			HasL4:   true,
			SrcPort: uint16(rng.Uint64()),
			DstPort: uint16(rng.Uint64()),
		}
		for _, fi := range fieldIdx {
			p.SetField(t.Schema[fi].Name, biased(rng, t, fi))
		}
		// Round-trip: the parsed frame is the packet of record, so the
		// switch models (which parse wire bytes) and the relational
		// semantics (which reads the struct) see identical values.
		var q packet.Packet
		if err := q.ParseInto(p.Marshal(nil)); err != nil {
			continue
		}
		pkts = append(pkts, &q)
	}
	return pkts
}

// biased draws a value for match column fi, mostly inside the pattern of
// a random entry.
func biased(rng *rand.Rand, t *mat.Table, fi int) uint64 {
	w := t.Schema[fi].Width
	v := rng.Uint64() & mask(w)
	if len(t.Entries) > 0 && rng.Float64() < 0.85 {
		c := t.Entries[rng.Intn(len(t.Entries))][fi]
		v = c.Bits | (rng.Uint64() & (mask(w) &^ prefixMask(c.PLen, w)))
	}
	return v
}
