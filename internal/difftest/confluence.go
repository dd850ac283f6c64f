package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"manorm/internal/confluence"
	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/openflow"
)

// GenerateConcurrent produces one seeded Batches input: a generated
// table as the base state plus two concurrent flow-mod batches under the
// base generator's disjoint-or-equal cell discipline, so every reachable
// state is ambiguity-free — the races are first-writer-wins key
// collisions and rejected mods.
func GenerateConcurrent(seed int64) *Program {
	t := Generate(seed).Table
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	pools := batchPools(rng, t)
	return &Program{Seed: seed, Note: fmt.Sprintf("concurrent(seed=%d)", seed), Table: t,
		Batches: [][]openflow.FlowMod{genBatch(rng, t, pools), genBatch(rng, t, pools)}}
}

// colPool is one match column's candidate cells: the cells installed
// entries use plus fresh exact cells disjoint from all of them.
type colPool struct {
	idx      int
	name     string
	width    uint8
	existing []mat.Cell
	fresh    []mat.Cell
}

// batchPools builds the per-column cell pools the batch generator draws
// from. A column whose installed cells include a wildcard gets no fresh
// cells (nothing is disjoint from Any).
func batchPools(rng *rand.Rand, t *mat.Table) []colPool {
	var pools []colPool
	for _, fi := range t.Schema.Fields() {
		cp := colPool{idx: fi, name: t.Schema[fi].Name, width: t.Schema[fi].Width}
		for _, e := range t.Entries {
			if !slices.Contains(cp.existing, e[fi]) {
				cp.existing = append(cp.existing, e[fi])
			}
		}
		if len(cp.existing) == 0 {
			cp.existing = append(cp.existing, mat.Any())
		}
		hasAny := slices.ContainsFunc(cp.existing, mat.Cell.IsAny)
		for tries := 0; !hasAny && len(cp.fresh) < 3 && tries < 32; tries++ {
			c := mat.Exact(rng.Uint64()&mask(cp.width), cp.width)
			if len(addDisjoint(cp.existing, c, cp.width)) > len(cp.existing) {
				cp.fresh = addDisjoint(cp.fresh, c, cp.width)
			}
		}
		pools = append(pools, cp)
	}
	return pools
}

// genBatch draws one batch of 1–3 flow-mods: mods targeting installed
// entries (deletes, modifies, racing duplicate adds) and mods composing
// rows from the pools (mostly adds of fresh keys, sometimes deletes or
// modifies of keys that may not exist — deliberate rejection cases).
func genBatch(rng *rand.Rand, t *mat.Table, pools []colPool) []openflow.FlowMod {
	n := 1 + rng.Intn(3)
	batch := make([]openflow.FlowMod, 0, n)
	for k := 0; k < n; k++ {
		var match []openflow.MatchField
		onExisting := len(t.Entries) > 0 && rng.Float64() < 0.6
		if onExisting {
			e := t.Entries[rng.Intn(len(t.Entries))]
			for _, cp := range pools {
				match = append(match, openflow.MatchField{Name: cp.name, Width: cp.width, Cell: e[cp.idx]})
			}
		} else {
			for _, cp := range pools {
				cell := cp.existing[rng.Intn(len(cp.existing))]
				if len(cp.fresh) > 0 && rng.Float64() < 0.5 {
					cell = cp.fresh[rng.Intn(len(cp.fresh))]
				}
				match = append(match, openflow.MatchField{Name: cp.name, Width: cp.width, Cell: cell})
			}
		}
		// On an installed entry: delete, modify, or a racing duplicate add
		// (first writer wins). On a composed row: mostly adds of fresh
		// keys; a delete or modify there is usually a rejection.
		cmd, r := openflow.FlowAdd, rng.Float64()
		switch {
		case onExisting && r < 0.35, !onExisting && r >= 0.70 && r < 0.85:
			cmd = openflow.FlowDelete
		case onExisting && r < 0.70, !onExisting && r >= 0.85:
			cmd = openflow.FlowModify
		}
		mod := openflow.FlowMod{Command: cmd, TableID: 0, Match: match}
		if cmd != openflow.FlowDelete {
			for _, ai := range t.Schema.Actions() {
				a := t.Schema[ai]
				mod.Actions = append(mod.Actions, openflow.ActionField{Name: a.Name, Width: a.Width, Value: rng.Uint64() & mask(a.Width)})
			}
		}
		batch = append(batch, mod)
	}
	return batch
}

// PlantConfluencePair builds the canonical non-confluent case on the
// rematch-hazard table: two concurrent batches that each FlowAdd the
// same fresh (vlan, tcp_dst) key with different mod_vlan/out actions.
// Whichever add lands first wins — the second is rejected as a duplicate
// — so the two delivery orders converge to genuinely different programs.
// The verifier must flag it non-confluent and brute-force interleaving
// must agree the finals diverge (kind "non-confluent"); the committed
// reproducer keeps that detection under regression.
func PlantConfluencePair(seed int64) *Program {
	h := PlantRematchHazard(seed)
	t := h.Table
	rng := rand.New(rand.NewSource(seed + 0xace))
	usedVlan := make(map[uint64]bool)
	usedDst := make(map[uint64]bool)
	for _, e := range t.Entries {
		usedVlan[e[0].Bits] = true
		usedDst[e[1].Bits] = true
		usedVlan[e[2].Bits] = true // keep clear of the mod_vlan targets too
	}
	vlan, dst := distinctValue(rng, 12, usedVlan), distinctValue(rng, 16, usedDst)
	add := func(modVlan, out uint64) []openflow.FlowMod {
		return []openflow.FlowMod{{Command: openflow.FlowAdd,
			Match: []openflow.MatchField{
				{Name: t.Schema[0].Name, Width: 12, Cell: mat.Exact(vlan, 12)},
				{Name: t.Schema[1].Name, Width: 16, Cell: mat.Exact(dst, 16)},
			},
			Actions: []openflow.ActionField{{Name: "mod_vlan", Width: 12, Value: modVlan}, {Name: "out", Width: 16, Value: out}},
		}}
	}
	mv1, mv2 := distinctValue(rng, 12, usedVlan), distinctValue(rng, 12, usedVlan)
	o1, o2 := distinctValue(rng, 16, usedDst), distinctValue(rng, 16, usedDst)
	return &Program{Seed: seed, Note: fmt.Sprintf("confluence-pair(seed=%d)", seed), Table: t, Batches: [][]openflow.FlowMod{add(mv1, o1), add(mv2, o2)}}
}

// checkConfluence cross-checks the confluence verifier against
// brute-force interleaving: every ordering is applied independently and
// the final states are compared pairwise on the NetKAT oracle. The
// verdicts must agree directionally —
//
//   - verifier confluent + oracle counterexample between finals, or
//   - verifier non-confluent + all finals canonically identical, or
//   - a failed compensation rollback
//
// is a KindConfluence divergence (a verifier bug). A non-confluent
// verdict brute force confirms (the finals genuinely differ) is reported
// as KindNonConfluent: expected for racing updates, replayable from the
// corpus, and not a fuzz failure.
func checkConfluence(c *Case) ([]Divergence, error) {
	// Small batches (≤ 3+3 mods, ≤ 20 interleavings) always enumerate
	// exhaustively, and compensation is always checked.
	v, err := confluence.Check(mat.SingleTable(c.Table), c.Batches, confluence.Options{
		MaxOrderings: 64, SampleOrderings: 16, WitnessPackets: 512, Seed: c.Seed + 1, Compensation: true})
	if err != nil {
		return nil, err
	}

	// Brute force, independent of the verifier's grouping and
	// fingerprinting: apply every interleaving, collect canonical states,
	// and compare finals on the oracle.
	sizes := make([]int, len(c.Batches))
	for i, b := range c.Batches {
		sizes[i] = len(b)
	}
	orders, exhaustive := confluence.Interleavings(sizes, 512, 32, c.Seed+2)
	finals := make([]*mat.Pipeline, len(orders))
	states := make(map[string]bool)
	for oi, order := range orders {
		q := mat.SingleTable(c.Table.Clone())
		pos := make([]int, len(c.Batches))
		for _, bi := range order {
			mod := c.Batches[bi][pos[bi]]
			_ = openflow.ApplyToPipeline(q, &mod) // rejected mods leave q untouched
			pos[bi]++
		}
		finals[oi] = q
		st, err := confluence.CanonicalState(q)
		if err != nil {
			return nil, err
		}
		states[st] = true
	}
	var cex *netkat.Counterexample
	for i := 1; i < len(finals); i++ {
		cx, _, err := netkat.EquivalentPipelines(finals[0], finals[i], c.cfg.OracleExhaustive)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		if cx != nil {
			cex = cx
			break
		}
	}

	compFailed := v.Compensation != nil && !v.Compensation.OK
	orderingDivergence := !v.Confluent && !compFailed

	var r report
	switch {
	case v.Confluent && cex != nil:
		r.add(KindConfluence, "verifier", "", -1, "verdict confluent (%d orderings, exhaustive=%v) but the oracle refutes it: %v",
			v.Orderings, v.Exhaustive, cex)
	case orderingDivergence && len(states) == 1:
		r.add(KindConfluence, "verifier", "", -1, "verdict non-confluent but all %d brute-forced interleavings (exhaustive=%v) reach the identical state: %s",
			len(orders), exhaustive, v.Counterexample.Detail)
	case orderingDivergence:
		c.tally["non-confluent"]++
		r.add(KindNonConfluent, "verifier", "", -1, "%s", v.Counterexample.Detail)
	}
	if compFailed {
		r.add(KindConfluence, "compensation", "", -1, "compensation not well-founded: %s", v.Compensation.Detail)
	}
	if len(r) == 0 {
		c.tally["confluent"]++
	}
	return r, nil
}

// decodeBatches reads a Batches input: the base table and at least two
// batches (mat.Cell marshals as a plain struct, so flow-mods round-trip
// as-is).
func decodeBatches(f *corpusFile, p *Program) error {
	if len(f.Batches) < 2 {
		return errors.New("a batch pair needs two batches")
	}
	p.Batches = f.Batches
	return nil
}
