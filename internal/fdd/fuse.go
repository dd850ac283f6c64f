// Package fdd fuses a multi-table match-action pipeline into a single
// first-match rule list — the compile-time counterpart of the paper's
// join abstractions, in the style of the NetKAT compiler's forwarding
// decision diagrams (with MatchKAT supplying the algebraic footing that
// the transformation is semantics-preserving).
//
// Fusion symbolically executes every root-to-exit path of the pipeline:
// table-to-table joins become path constraints, metadata plumbing is
// resolved statically (register values along a path are compile-time
// constants), and rematch joins on rewritten fields are resolved against
// the written constant — deliberately reproducing *datapath* semantics,
// including the paper's Fig. 3 set-field/rematch caveat, so a fused
// program is equivalent to interpreting the pipeline, not to the
// relational reading the caveat diverges from.
//
// The output is ordered: rule r matches only packets matched by no rule
// before it. Lowering therefore requires a first-match classifier
// (classifier.ForceFDD); re-sorting the rules by specificity is unsound.
//
// Fusion is the one path walk of the repository, with two readers: the
// dataplane lowers the program into a fused datapath, and
// core.Denormalize projects it onto one table (one row per
// forwarding path). Which field a rewriting action writes comes from
// packet.RewriteTarget, the rule the dataplane's binder applies too.
package fdd

import (
	"errors"
	"fmt"
	"sort"

	"manorm/internal/mat"
	"manorm/internal/packet"
)

// ErrUnfusable marks pipelines fusion declines: goto cycles, inconsistent
// field widths across stages, matches on a TTL made unknown by dec_ttl,
// or path explosion past MaxRules. Callers treat it as "interpret
// instead", not as a program error.
var ErrUnfusable = errors.New("fdd: pipeline not fusable")

// MaxRules bounds the fused rule count (path explosion guard).
const MaxRules = 1 << 16

// IsUnfusable reports whether an error means "this pipeline cannot be
// fused" (as opposed to an invalid pipeline).
func IsUnfusable(err error) bool { return errors.Is(err, ErrUnfusable) }

// Col is one match column of the fused program: a packet field consulted
// by at least one stage.
type Col struct {
	Name  string
	Width uint8
}

// Act is one logical action along a fused path, by source attribute name
// ("out", "mod_ttl", metadata names, field rewrites).
type Act struct {
	Attr  string
	Value uint64
}

// Step is one logical stage visit on a fused path — enough to
// reconstruct the interpreted pipeline's per-packet witness from the
// single fused lookup.
type Step struct {
	Stage int
	Table string
	Entry int // matched entry, -1 on a miss visit
	Join  string
	Acts  []Act
}

// Rule is one fused path: the accumulated header constraint, the
// concatenated actions, the verdict, and the logical trace.
type Rule struct {
	Match []mat.Cell // one cell per Program.Cols
	Acts  []Act
	Drop  bool
	Steps []Step
}

// Tables returns the logical pipeline depth of the path (stage visits,
// misses included) — what the interpreted Verdict.Tables reports.
func (r *Rule) Tables() int { return len(r.Steps) }

// Program is a fused pipeline: ordered rules over shared match columns.
type Program struct {
	Name  string
	Cols  []Col
	Rules []Rule
}

// MatchTable lowers the match side into a mat.Table (entry order = rule
// order) for the first-match classifier template.
func (p *Program) MatchTable() *mat.Table {
	schema := make(mat.Schema, 0, len(p.Cols)+1)
	for _, c := range p.Cols {
		schema = append(schema, mat.F(c.Name, c.Width))
	}
	schema = append(schema, mat.A("out", 16)) // placeholder; actions live in Rules
	t := mat.New(p.Name+"+fdd", schema)
	for _, r := range p.Rules {
		cells := make([]mat.Cell, 0, len(schema))
		cells = append(cells, r.Match...)
		cells = append(cells, mat.Exact(0, 16))
		t.Add(cells...)
	}
	return t
}

// fuser carries fusion state across the path enumeration.
type fuser struct {
	p      *mat.Pipeline
	cols   []Col
	colIdx map[string]int
	orders [][]int // per stage, its entry order once visited
	rules  []Rule
}

// pathState is the symbolic machine state along one path. Cloned on every
// branch; maps hold only names actually written.
type pathState struct {
	match    []mat.Cell        // per fused column, constraint on the ORIGINAL header
	written  map[string]uint64 // packet fields rewritten on the path (current value)
	ttlDirty bool              // dec_ttl applied with unknown TTL
	meta     map[string]uint64 // metadata registers (absent = 0)
	acts     []Act
	steps    []Step
}

func (st *pathState) clone() *pathState {
	n := &pathState{
		match:    append([]mat.Cell(nil), st.match...),
		ttlDirty: st.ttlDirty,
		acts:     st.acts[:len(st.acts):len(st.acts)],
		steps:    st.steps[:len(st.steps):len(st.steps)],
	}
	if len(st.written) > 0 {
		n.written = make(map[string]uint64, len(st.written))
		for k, v := range st.written {
			n.written[k] = v
		}
	}
	if len(st.meta) > 0 {
		n.meta = make(map[string]uint64, len(st.meta))
		for k, v := range st.meta {
			n.meta[k] = v
		}
	}
	return n
}

// Fuse compiles the pipeline into a fused program by enumerating its
// paths. The pipeline itself is not modified; its Fused hint is ignored
// here (the caller already decided to fuse).
func Fuse(p *mat.Pipeline) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &fuser{p: p, colIdx: make(map[string]int), orders: make([][]int, len(p.Stages))}
	for _, stg := range p.Stages {
		sch := stg.Table.Schema
		for _, fi := range sch.Fields() {
			at := sch[fi]
			if mat.IsLinkAttr(at.Name) {
				continue
			}
			if ci, ok := f.colIdx[at.Name]; ok {
				if f.cols[ci].Width != at.Width {
					return nil, fmt.Errorf("%w: field %s has widths %d and %d across stages",
						ErrUnfusable, at.Name, f.cols[ci].Width, at.Width)
				}
				continue
			}
			f.colIdx[at.Name] = len(f.cols)
			f.cols = append(f.cols, Col{Name: at.Name, Width: at.Width})
		}
	}
	st := &pathState{match: make([]mat.Cell, len(f.cols))}
	if err := f.fuse(p.Start, st, 0); err != nil {
		return nil, err
	}
	return &Program{Name: p.Name, Cols: f.cols, Rules: f.rules}, nil
}

// emit appends one finished path as a rule.
func (f *fuser) emit(st *pathState, drop bool) error {
	if len(f.rules) >= MaxRules {
		return fmt.Errorf("%w: more than %d fused rules", ErrUnfusable, MaxRules)
	}
	f.rules = append(f.rules, Rule{
		Match: append([]mat.Cell(nil), st.match...),
		Acts:  st.acts,
		Drop:  drop,
		Steps: st.steps,
	})
	return nil
}

// fuse enumerates the paths of the sub-pipeline rooted at stage under the
// symbolic state st, emitting one rule per path in first-match order:
// per stage, entry paths most-specific-first (the classifiers' resolution
// order), then the miss continuation. Every packet satisfying st's
// constraint is covered by exactly the first emitted rule it matches,
// which is the rule of the path the interpreter would take.
func (f *fuser) fuse(stage int, st *pathState, visits int) error {
	if stage < 0 {
		return f.emit(st, false)
	}
	if visits > len(f.p.Stages) {
		return fmt.Errorf("%w: goto cycle through stage %d", ErrUnfusable, stage)
	}
	stg := f.p.Stages[stage]
	t := stg.Table
	sch := t.Schema
	fields := sch.Fields()
	gotoIdx := sch.Index(mat.GotoAttr)

	covered := false // some feasible entry matches st's whole region
	for _, ei := range f.order(stage) {
		e := t.Entries[ei]
		st2, full, feasible, err := f.intersect(st, sch, fields, e)
		if err != nil {
			return err
		}
		if !feasible {
			continue
		}
		covered = covered || full

		// Apply the entry's actions to the symbolic state.
		g := -1
		setsMeta := false
		var stepActs []Act
		for i, at := range sch {
			if at.Kind != mat.Action {
				continue
			}
			v := e[i].Bits
			switch {
			case i == gotoIdx:
				g = int(v)
			case at.Name == "out":
				stepActs = append(stepActs, Act{Attr: "out", Value: v})
			case at.Name == "mod_ttl":
				stepActs = append(stepActs, Act{Attr: "mod_ttl", Value: v})
				if w, ok := st2.written[packet.FieldTTL]; ok {
					if w > 0 {
						st2.written[packet.FieldTTL] = w - 1
					}
				} else {
					st2.ttlDirty = true
				}
			case mat.IsLinkAttr(at.Name):
				if st2.meta == nil {
					st2.meta = make(map[string]uint64, 2)
				}
				st2.meta[at.Name] = v
				setsMeta = true
				stepActs = append(stepActs, Act{Attr: at.Name, Value: v})
			default:
				// Only a rewrite of a matched field can be re-read: one
				// the pipeline never matches needs no tracking.
				fld := packet.RewriteTarget(at.Name)
				if ci, ok := f.colIdx[fld]; ok {
					if st2.written == nil {
						st2.written = make(map[string]uint64, 2)
					}
					st2.written[fld] = v & ((uint64(1) << f.cols[ci].Width) - 1)
					if fld == packet.FieldTTL {
						st2.ttlDirty = false
					}
				}
				stepActs = append(stepActs, Act{Attr: at.Name, Value: v})
			}
		}
		next := stg.Next
		if g >= 0 {
			next = g
		}
		st2.acts = append(st2.acts, stepActs...)
		st2.steps = append(st2.steps, Step{
			Stage: stage, Table: t.Name, Entry: ei,
			Join: JoinName(g, setsMeta, stg.Next), Acts: stepActs,
		})
		if err := f.fuse(next, st2, visits+1); err != nil {
			return err
		}
	}

	// Miss continuation, unless a feasible entry already covers the whole
	// region (then the miss path is statically unreachable).
	if covered {
		return nil
	}
	st2 := st.clone()
	if stg.MissDrop {
		st2.steps = append(st2.steps, Step{Stage: stage, Table: t.Name, Entry: -1, Join: "drop"})
		return f.emit(st2, true)
	}
	st2.steps = append(st2.steps, Step{
		Stage: stage, Table: t.Name, Entry: -1, Join: JoinName(-1, false, stg.Next),
	})
	return f.fuse(stg.Next, st2, visits+1)
}

// order returns a stage's entry resolution order — total significant
// bits descending, entry index ascending, the shared convention of every
// classifier template and the relational evaluator — sorting the stage
// on its first visit only.
func (f *fuser) order(stage int) []int {
	if o := f.orders[stage]; o != nil {
		return o
	}
	t := f.p.Stages[stage].Table
	fields := t.Schema.Fields()
	order := make([]int, len(t.Entries))
	prio := make([]int, len(t.Entries))
	for i, e := range t.Entries {
		order[i] = i
		for _, fi := range fields {
			prio[i] += int(e[fi].PLen)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return prio[order[a]] > prio[order[b]] })
	f.orders[stage] = order
	return order
}

// intersect refines st's constraint with one entry's match row. Metadata
// columns and columns over fields rewritten on the path resolve
// statically — the latter against the written constant, which is exactly
// what a datapath re-matching rewritten headers does (the Fig. 3 caveat).
// Returns the refined state (nil when infeasible), whether the entry
// covers st's entire region, and feasibility.
func (f *fuser) intersect(st *pathState, sch mat.Schema, fields []int, e mat.Entry) (*pathState, bool, bool, error) {
	full := true
	// First pass: feasibility without allocating.
	for _, fi := range fields {
		at := sch[fi]
		cell := e[fi]
		if mat.IsLinkAttr(at.Name) {
			if !cell.Matches(st.meta[at.Name], at.Width) {
				return nil, false, false, nil
			}
			continue
		}
		if wv, ok := st.written[at.Name]; ok {
			if !cell.Matches(wv, at.Width) {
				return nil, false, false, nil
			}
			continue
		}
		if at.Name == packet.FieldTTL && st.ttlDirty && !cell.IsAny() {
			return nil, false, false, fmt.Errorf("%w: match on %s after dec_ttl", ErrUnfusable, at.Name)
		}
		prev := st.match[f.colIdx[at.Name]]
		if !prev.Overlaps(cell, at.Width) {
			return nil, false, false, nil
		}
		if !cell.Covers(prev, at.Width) {
			full = false
		}
	}
	st2 := st.clone()
	for _, fi := range fields {
		at := sch[fi]
		if mat.IsLinkAttr(at.Name) {
			continue
		}
		if _, ok := st.written[at.Name]; ok {
			continue
		}
		ci := f.colIdx[at.Name]
		cell := e[fi].Canonical(at.Width)
		if cell.PLen > st2.match[ci].PLen {
			st2.match[ci] = cell
		}
	}
	return st2, full, true, nil
}

// JoinName classifies the mechanism that carries execution onward from a
// stage: an explicit goto, a metadata register handed to the next stage,
// or plain fall-through (the rematch abstraction: the next stage matches
// packet headers again). A next of -1 ends the pipeline. Fused steps and
// the interpreted dataplane's witnesses both name joins with it.
func JoinName(gotoTarget int, setsMeta bool, next int) string {
	switch {
	case gotoTarget >= 0:
		return "goto"
	case next < 0:
		return "terminal"
	case setsMeta:
		return "metadata"
	default:
		return "rematch"
	}
}
