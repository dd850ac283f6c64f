package mat

import (
	"fmt"
	"strings"
)

// Reserved attribute-name prefixes used by decomposition to link stages.
const (
	// GotoAttr is the action attribute carrying a goto_table target: its
	// cell value is the index of the next stage in the pipeline.
	GotoAttr = "_goto"
	// MetaPrefix prefixes metadata attributes introduced by the
	// metadata-based join abstraction ("write-metadata" in stage i,
	// metadata match in stage i+1 share the same name).
	MetaPrefix = "_meta"
	// DropAttr is the virtual record attribute marking a dropped packet
	// (table miss with a drop default).
	DropAttr = "_drop"
)

// IsLinkAttr reports whether an attribute name is pipeline plumbing
// (goto target or metadata tag) rather than program-visible state.
func IsLinkAttr(name string) bool {
	return name == GotoAttr || strings.HasPrefix(name, MetaPrefix)
}

// Stage is one table in a pipeline plus its default control flow.
type Stage struct {
	Table *Table
	// Next is the stage index control falls through to after this table
	// (when the matched entry carries no goto action); -1 terminates the
	// pipeline. A goto action in a matched entry overrides Next.
	Next int
	// MissDrop selects the table-miss policy: true drops the packet
	// (sets DropAttr), false falls through to Next untouched.
	MissDrop bool
}

// Pipeline is a chain of match-action tables — the multi-table
// representation of a program. A single-stage pipeline is the universal
// (single-table) representation.
type Pipeline struct {
	Name   string
	Stages []Stage
	Start  int
	// Fused asks compiling datapaths to fuse the whole pipeline into a
	// single first-match decision structure (internal/fdd) instead of
	// interpreting the stage joins per packet. It is a compilation hint:
	// the relational semantics, validation and footprint metrics ignore it.
	Fused bool
}

// SingleTable wraps one table as a one-stage pipeline (the universal
// representation), with drop-on-miss semantics.
func SingleTable(t *Table) *Pipeline {
	return &Pipeline{Name: t.Name, Stages: []Stage{{Table: t, Next: -1, MissDrop: true}}}
}

// Clone deep-copies the pipeline (tables, schemas and entries).
func (p *Pipeline) Clone() *Pipeline {
	out := &Pipeline{Name: p.Name, Start: p.Start, Fused: p.Fused}
	for _, st := range p.Stages {
		out.Stages = append(out.Stages, Stage{Table: st.Table.Clone(), Next: st.Next, MissDrop: st.MissDrop})
	}
	return out
}

// Validate checks the pipeline: valid tables, in-range Next links and goto
// targets.
func (p *Pipeline) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("pipeline %s: no stages", p.Name)
	}
	if p.Start < 0 || p.Start >= len(p.Stages) {
		return fmt.Errorf("pipeline %s: start stage %d out of range", p.Name, p.Start)
	}
	for si := range p.Stages {
		if err := p.ValidateStage(si); err != nil {
			return err
		}
	}
	return nil
}

// ValidateStage is Validate's per-stage check, for callers that know which
// stages changed since the pipeline last validated.
func (p *Pipeline) ValidateStage(si int) error {
	if si < 0 || si >= len(p.Stages) {
		return fmt.Errorf("pipeline %s: stage %d out of range", p.Name, si)
	}
	st := p.Stages[si]
	if err := st.Table.Validate(); err != nil {
		return fmt.Errorf("pipeline %s: stage %d: %w", p.Name, si, err)
	}
	if st.Next < -1 || st.Next >= len(p.Stages) {
		return fmt.Errorf("pipeline %s: stage %d: next %d out of range", p.Name, si, st.Next)
	}
	if g := st.Table.Schema.Index(GotoAttr); g >= 0 {
		for ei, e := range st.Table.Entries {
			tgt := int(e[g].Bits)
			if tgt < 0 || tgt >= len(p.Stages) {
				return fmt.Errorf("pipeline %s: stage %d entry %d: goto %d out of range", p.Name, si, ei, tgt)
			}
		}
	}
	return nil
}

// FieldCount sums the footprint metric over all stages: the total number of
// match-action fields stored in the data plane. Link attributes count — they
// occupy real table space — matching how the paper counts (Fig. 1b holds 21
// fields including the goto column).
func (p *Pipeline) FieldCount() int {
	n := 0
	for _, s := range p.Stages {
		n += s.Table.FieldCount()
	}
	return n
}

// EntryCount sums entries over all stages.
func (p *Pipeline) EntryCount() int {
	n := 0
	for _, s := range p.Stages {
		n += len(s.Table.Entries)
	}
	return n
}

// Depth returns the number of stages.
func (p *Pipeline) Depth() int { return len(p.Stages) }

// String renders every stage.
func (p *Pipeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %s (start=%d):\n", p.Name, p.Start)
	for i, s := range p.Stages {
		fmt.Fprintf(&b, "[stage %d, next=%d] %s", i, s.Next, s.Table.String())
	}
	return b.String()
}

// Record is a packet in the relational semantics: a total assignment of
// concrete values to attribute names. Evaluating a program reads match
// fields from the record and writes action attributes back into it.
type Record map[string]uint64

// Clone copies the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Equal reports whether two records agree on every key of both.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// matchEntry finds the entry of t matching record r, using most-specific
// (longest total prefix) priority among matching entries. It returns the
// entry index or -1 on miss, and an error if two distinct entries match at
// the same specificity (ambiguous table — a 1NF order-independence
// violation observable at runtime).
func matchEntry(t *Table, r Record) (int, error) {
	best, bestLen := -1, -1
	ambiguous := false
	for ei, e := range t.Entries {
		total := 0
		ok := true
		for i, a := range t.Schema {
			if a.Kind != Field {
				continue
			}
			v, present := r[a.Name]
			if !present {
				// Absent attribute: only a wildcard matches.
				if !e[i].IsAny() {
					ok = false
					break
				}
				continue
			}
			if !e[i].Matches(v, a.Width) {
				ok = false
				break
			}
			total += int(e[i].PLen)
		}
		if !ok {
			continue
		}
		if total > bestLen {
			best, bestLen, ambiguous = ei, total, false
		} else if total == bestLen {
			ambiguous = true
		}
	}
	if ambiguous {
		return -1, fmt.Errorf("mat: table %s: ambiguous match (order-independence violated)", t.Name)
	}
	return best, nil
}

// EvalTable applies one table to the record: looks up the matching entry and
// writes its action cells into the record. It returns the goto target
// (-1 if none), whether an entry matched, and an error on ambiguity.
func EvalTable(t *Table, r Record) (gotoTarget int, hit bool, err error) {
	ei, err := matchEntry(t, r)
	if err != nil {
		return -1, false, err
	}
	if ei < 0 {
		return -1, false, nil
	}
	gotoTarget = -1
	e := t.Entries[ei]
	for i, a := range t.Schema {
		if a.Kind != Action {
			continue
		}
		if a.Name == GotoAttr {
			gotoTarget = int(e[i].Bits)
			continue
		}
		r[a.Name] = e[i].Bits
	}
	return gotoTarget, true, nil
}

// Eval runs the pipeline on a copy of the input record and returns the final
// record. Dropped packets carry DropAttr=1. The stage budget guards against
// accidental goto cycles.
func (p *Pipeline) Eval(in Record) (Record, error) {
	r := in.Clone()
	cur := p.Start
	for steps := 0; cur >= 0; steps++ {
		if steps > len(p.Stages)+1 {
			return nil, fmt.Errorf("mat: pipeline %s: stage budget exceeded (goto cycle?)", p.Name)
		}
		st := p.Stages[cur]
		g, hit, err := EvalTable(st.Table, r)
		if err != nil {
			return nil, err
		}
		switch {
		case !hit && st.MissDrop:
			r[DropAttr] = 1
			return r, nil
		case g >= 0:
			cur = g
		default:
			cur = st.Next
		}
	}
	return r, nil
}

// Observable projects the record onto program-visible state: everything
// except link attributes. A dropped packet is observationally just
// "dropped" — modifications applied before the drop never reach the wire —
// so the projection of a dropped record is {DropAttr: 1} alone, matching
// NetKAT's empty output set for drop. Equivalence of two representations
// means equal observable projections on every input.
func (r Record) Observable() Record {
	if r[DropAttr] == 1 {
		return Record{DropAttr: 1}
	}
	out := make(Record, len(r))
	for k, v := range r {
		if !IsLinkAttr(k) {
			out[k] = v
		}
	}
	return out
}
