package difftest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"manorm/internal/core"
	"manorm/internal/fd"
	"manorm/internal/mat"
)

// CaveatPipeline hand-builds the decomposition the paper's Fig. 3 warns
// about and core.Decompose refuses (ErrActionToMatch): splitting a table
// along a dependency whose left-hand side contains an action attribute
// and whose right-hand side contains a match field.
//
// Heath's theorem still applies relationally — the projections join back
// to the original table — but the first stage must then decide the action
// *without* seeing the moved match field, which leaves it with duplicate
// match rows: the resulting table is not order-independent (not 1NF), and
// no priority assignment can make it faithful. Executing this pipeline is
// how the differential harness demonstrates the caveat is real: the
// relational evaluator reports the ambiguity, and compiled classifiers
// silently tie-break and return wrong verdicts.
func CaveatPipeline(t *mat.Table) (*mat.Pipeline, error) {
	a := core.Analyze(t)
	cands := fd.ActionToMatch(t.Schema, a.FDs)
	if len(cands) == 0 {
		return nil, errors.New("difftest: table has no action-to-match dependency to exploit")
	}
	f := cands[0]

	// Move a single determined match field to the second stage (Fig. 3
	// moves vlan); everything else stays in stage 1 together with the
	// metadata tag identifying the LHS group.
	x := f.From
	var y mat.AttrSet
	for _, i := range f.To.Minus(x).Members() {
		if t.Schema[i].Kind == mat.Field {
			y = mat.NewAttrSet(i)
			break
		}
	}
	if y.Empty() {
		return nil, errors.New("difftest: dependency has no match field to move")
	}

	gid := make([]mat.Cell, len(t.Entries))
	groups := t.GroupBy(x)
	mw := uint8(max(1, bits.Len(uint(len(groups)-1))))
	for gi, idxs := range groups {
		for _, ei := range idxs {
			gid[ei] = mat.Exact(uint64(gi), mw)
		}
	}
	metaName := mat.MetaPrefix + "_" + x.Names(t.Schema)[0]
	// stage projects every entry onto idx with its group tag, first or
	// last, keeping one row per distinct result.
	stage := func(name string, idx []int, tagFirst bool) *mat.Table {
		sch := t.Schema.Project(idx)
		if tagFirst {
			sch = append(mat.Schema{mat.F(metaName, mw)}, sch...)
		} else {
			sch = append(sch, mat.A(metaName, mw))
		}
		st, seen := mat.New(name, sch), make(map[string]bool)
		for ei, e := range t.Entries {
			row := make([]mat.Cell, 0, len(sch))
			for _, i := range idx {
				row = append(row, e[i])
			}
			if tagFirst {
				row = append([]mat.Cell{gid[ei]}, row...)
			} else {
				row = append(row, gid[ei])
			}
			if k := fmt.Sprint(row); !seen[k] {
				seen[k] = true
				st.Add(row...)
			}
		}
		return st
	}

	// Stage 1 keeps every attribute but the moved field and writes the
	// tag: full rows stay distinct but match rows duplicate — the 1NF
	// violation the construction cannot avoid. Stage 2 is the
	// "validation" table checking the moved field against the group.
	p := &mat.Pipeline{
		Name: t.Name + "-fig3",
		Stages: []mat.Stage{
			{Table: stage(t.Name+"_dec", mat.FullSet(len(t.Schema)).Minus(y).Members(), false), Next: 1, MissDrop: true},
			{Table: stage(t.Name+"_dep", y.Members(), true), Next: -1, MissDrop: true},
		},
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("difftest: caveat pipeline invalid: %w", err)
	}
	return p, nil
}

// PlantCaveat generates a program carrying the Fig. 3 trap: two match
// columns whose cross product carries a per-entry-distinct "out", so
// {out} → {field} holds while neither match column alone determines out,
// plus the Caveat flag that attaches the forbidden decomposition along
// that dependency. A couple of noise entries in a third group give the
// shrinker something to chew on. Checking it must diverge.
func PlantCaveat(seed int64) (*Program, error) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(fieldPool))
	f0, f1 := fieldPool[perm[0]], fieldPool[perm[1]]
	t := mat.New(fmt.Sprintf("fuzz%d", seed), mat.Schema{mat.F(f0.name, f0.width), mat.F(f1.name, f1.width), mat.A("out", 16)})
	pool0 := cellPool(rng, f0.width, 3, false)
	pool1 := cellPool(rng, f1.width, 2, false)
	used := make(map[uint64]bool)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			t.Add(pool0[i], pool1[j], mat.Exact(distinctValue(rng, 16, used), 16))
		}
	}
	for k := 0; k < 1+rng.Intn(2) && len(pool0) > 2; k++ {
		t.Add(pool0[2], pool1[rng.Intn(len(pool1))], mat.Exact(distinctValue(rng, 16, used), 16))
	}
	dropAmbiguous(t)
	if _, err := CaveatPipeline(t); err != nil {
		return nil, fmt.Errorf("difftest: seed %d: %w", seed, err)
	}
	return &Program{Seed: seed, Note: fmt.Sprintf("fig3-caveat(seed=%d)", seed), Caveat: true, Table: t, Packets: genPackets(rng, t)}, nil
}
