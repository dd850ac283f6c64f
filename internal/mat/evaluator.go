package mat

import (
	"fmt"
	"sort"
)

// Slots numbers attribute names densely, so that a record can be held as a
// slot vector (Vec) and evaluated with no map operation. Evaluators whose
// outputs are to be compared are built over one Slots: the same name is
// then the same slot on every side. Slot 0 is always DropAttr.
type Slots struct {
	names []string
	index map[string]int
	link  []bool // IsLinkAttr(names[s])
}

// NewSlots returns a numbering holding DropAttr alone.
func NewSlots() *Slots {
	s := &Slots{index: make(map[string]int)}
	s.Slot(DropAttr)
	return s
}

// Slot returns the slot of the named attribute, assigning the next free
// one on first sight. Vectors made before a new name was added are too
// short for it: name everything (build every evaluator) before NewVec.
func (s *Slots) Slot(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	s.link = append(s.link, IsLinkAttr(name))
	return i
}

// Vec is a Record in slot form: Val[s] is the value of slot s, meaningful
// only where Set[s]; an unset slot is an absent attribute.
type Vec struct {
	Val []uint64
	Set []bool
}

// NewVec returns an all-absent vector covering every slot assigned so far.
func (s *Slots) NewVec() Vec {
	return Vec{Val: make([]uint64, len(s.names)), Set: make([]bool, len(s.names))}
}

// Load overwrites v with the record's attributes; names that have no slot
// are ones no evaluator over s reads or writes, and are skipped.
func (s *Slots) Load(v Vec, r Record) {
	for i, name := range s.names {
		v.Val[i], v.Set[i] = r[name]
	}
}

// Store writes every present slot of v into r.
func (s *Slots) Store(v Vec, r Record) {
	for i, name := range s.names {
		if v.Set[i] {
			r[name] = v.Val[i]
		}
	}
}

// Record materialises v.
func (s *Slots) Record(v Vec) Record {
	r := make(Record, len(s.names))
	s.Store(v, r)
	return r
}

// ObservableEqual reports whether the records a and b stand for have equal
// Observable projections, without building either.
func (s *Slots) ObservableEqual(a, b Vec) bool {
	da, db := a.Set[0] && a.Val[0] == 1, b.Set[0] && b.Val[0] == 1
	if da || db {
		return da == db
	}
	for i, link := range s.link {
		if link {
			continue
		}
		if a.Set[i] != b.Set[i] || (a.Set[i] && a.Val[i] != b.Val[i]) {
			return false
		}
	}
	return true
}

// Evaluator is a pipeline compiled for evaluating many records: every
// table carries a tuple-space index (entries grouped by per-field
// prefix-length vector, each group hashed on its masked bits) and every
// attribute name is resolved to a slot, so one lookup costs a hash probe
// per group instead of a scan of the relation, and no allocation.
//
// It computes exactly what Pipeline.Eval computes — most-specific entry
// wins, an equal-specificity tie is an error, an absent attribute matches
// only a wildcard, the same miss, goto and stage-budget rules. Pipeline.Eval,
// EvalTable and matchEntry remain the executable definition of those
// semantics (and the ground truth of difftest and of the repo benchmark);
// the evaluator exists only because exhaustive equivalence checking calls
// the semantics hundreds of thousands of times, and the definition is its
// oracle in tests (TestEvaluatorMatchesEval, FuzzEvaluatorMatchesEval,
// difftest's KindEvaluator). That is the one reason there are two.
//
// An Evaluator is an immutable snapshot: it copies what it needs at build
// time and never looks at the pipeline again, so later edits to the
// pipeline's tables neither show through nor can make it read out of range.
// After mutating a pipeline, build a new evaluator.
type Evaluator struct {
	name   string
	slots  *Slots
	start  int
	stages []evalStage
}

type evalStage struct {
	table    string
	next     int
	missDrop bool
	fields   []int // slot of each match column, in schema order
	groups   []evalGroup
	actSlots []int    // slot of each non-goto action column
	acts     []uint64 // entries × actSlots
	gotos    []int    // per entry: goto target (negative: none); nil without a goto column
}

// evalGroup is one plenGroup made probeable: rows chained per hash bucket,
// with the entries' match bits copied next to them.
type evalGroup struct {
	total int
	masks []uint64 // per match column; 0 is a wildcard
	shift uint     // bucket = hash >> shift
	heads []int32  // per bucket: 1-based position of the chain's first row, 0 for none
	next  []int32  // per position: the chain's next position
	rows  []int32  // per position: entry index
	keys  []uint64 // positions × match columns
}

// Bucket hashing multiplies by the 64-bit golden-ratio constant and keeps
// the top bits (Fibonacci hashing): match keys are mostly consecutive
// integers and left-aligned prefixes, which FNV's small prime leaves
// clustered in the high bits and a plain low-bit mask in the low ones.
const hashMul = 0x9E3779B97F4A7C15

// NewEvaluator compiles the pipeline over the given slot numbering.
func NewEvaluator(p *Pipeline, s *Slots) *Evaluator {
	e := &Evaluator{name: p.Name, slots: s, start: p.Start, stages: make([]evalStage, len(p.Stages))}
	for si, st := range p.Stages {
		e.stages[si] = compileStage(st, s)
	}
	return e
}

func compileStage(st Stage, s *Slots) evalStage {
	t := st.Table
	out := evalStage{table: t.Name, next: st.Next, missDrop: st.MissDrop}
	fields := t.Schema.Fields()
	for _, fi := range fields {
		out.fields = append(out.fields, s.Slot(t.Schema[fi].Name))
	}

	var actCols, gotoCols []int
	for i, a := range t.Schema {
		switch {
		case a.Kind != Action:
		case a.Name == GotoAttr:
			gotoCols = append(gotoCols, i)
		default:
			actCols = append(actCols, i)
			out.actSlots = append(out.actSlots, s.Slot(a.Name))
		}
	}
	entries := t.Entries
	out.acts = make([]uint64, 0, len(entries)*len(actCols))
	if len(gotoCols) > 0 {
		out.gotos = make([]int, len(entries))
	}
	for ei, e := range entries {
		for _, c := range actCols {
			out.acts = append(out.acts, e[c].Bits)
		}
		for _, c := range gotoCols {
			out.gotos[ei] = int(e[c].Bits)
		}
	}

	pgs := t.plenGroups(fields, nil)
	// Most specific first, so a lookup can stop at the first group below
	// the specificity it has already matched.
	sort.SliceStable(pgs, func(i, j int) bool { return pgs[i].total > pgs[j].total })
	out.groups = make([]evalGroup, len(pgs))
	for gi, pg := range pgs {
		g := evalGroup{total: pg.total, masks: make([]uint64, len(fields)), shift: 64}
		for i, fi := range fields {
			g.masks[i] = prefixMask(pg.plens[i], t.Schema[fi].Width)
		}
		buckets := 1
		for buckets < 2*len(pg.rows) {
			buckets <<= 1
			g.shift--
		}
		g.heads = make([]int32, buckets)
		g.next = make([]int32, len(pg.rows))
		g.rows = make([]int32, len(pg.rows))
		g.keys = make([]uint64, 0, len(pg.rows)*len(fields))
		for pos, ei := range pg.rows {
			h := uint64(0)
			for i, fi := range fields {
				bits := entries[ei][fi].Bits & g.masks[i]
				g.keys = append(g.keys, bits)
				if g.masks[i] != 0 {
					h = (h ^ bits) * hashMul
				}
			}
			b := h >> g.shift
			g.rows[pos] = int32(ei)
			g.next[pos] = g.heads[b]
			g.heads[b] = int32(pos + 1)
		}
		out.groups[gi] = g
	}
	return out
}

// match is matchEntry on the index: the entry matching v under
// most-specific-wins, -1 on a miss, an error on an equal-specificity tie.
func (st *evalStage) match(v Vec) (int, error) {
	best, bestTotal := -1, -1
	nf := len(st.fields)
groups:
	for gi := range st.groups {
		g := &st.groups[gi]
		if g.total < bestTotal {
			break
		}
		h := uint64(0)
		for i, m := range g.masks {
			if m == 0 {
				continue
			}
			s := st.fields[i]
			if !v.Set[s] {
				// Absent attribute: only a wildcard matches.
				continue groups
			}
			h = (h ^ (v.Val[s] & m)) * hashMul
		}
	chain:
		for pos := g.heads[h>>g.shift]; pos != 0; pos = g.next[pos-1] {
			key := g.keys[int(pos-1)*nf : int(pos)*nf]
			for i, m := range g.masks {
				if m != 0 && v.Val[st.fields[i]]&m != key[i] {
					continue chain
				}
			}
			if best >= 0 {
				return -1, fmt.Errorf("mat: table %s: ambiguous match (order-independence violated)", st.table)
			}
			best, bestTotal = int(g.rows[pos-1]), g.total
		}
	}
	return best, nil
}

// Run evaluates the pipeline on v in place: on return v is the final
// record (DropAttr set to 1 for a dropped packet). On an error v is
// unspecified.
func (e *Evaluator) Run(v Vec) error {
	cur := e.start
	for steps := 0; cur >= 0; steps++ {
		if steps > len(e.stages)+1 {
			return fmt.Errorf("mat: pipeline %s: stage budget exceeded (goto cycle?)", e.name)
		}
		if cur >= len(e.stages) {
			return fmt.Errorf("mat: pipeline %s: stage %d out of range", e.name, cur)
		}
		st := &e.stages[cur]
		ei, err := st.match(v)
		if err != nil {
			return err
		}
		if ei < 0 {
			if st.missDrop {
				v.Val[0], v.Set[0] = 1, true
				return nil
			}
			cur = st.next
			continue
		}
		na := len(st.actSlots)
		for i, bits := range st.acts[ei*na : (ei+1)*na] {
			s := st.actSlots[i]
			v.Val[s], v.Set[s] = bits, true
		}
		if st.gotos != nil && st.gotos[ei] >= 0 {
			cur = st.gotos[ei]
		} else {
			cur = st.next
		}
	}
	return nil
}

// Eval is Pipeline.Eval by way of Run: the final record for a copy of the
// input, attributes the pipeline never mentions carried through untouched.
func (e *Evaluator) Eval(in Record) (Record, error) {
	v := e.slots.NewVec()
	e.slots.Load(v, in)
	if err := e.Run(v); err != nil {
		return nil, err
	}
	out := in.Clone()
	e.slots.Store(v, out)
	return out, nil
}
