package core

import (
	"fmt"
	"slices"

	"manorm/internal/fdd"
	"manorm/internal/mat"
)

// Denormalize is the inverse transformation (§4: "decomposing a
// match-action table into multiple tables and vice versa"): it re-joins a
// multi-table pipeline into the single table that forwards like it. The
// table is a projection of the fused program (fdd.Fuse): one row per
// forwarding path, its fields the path's header constraint and its
// actions the last value the path writes to each. Link attributes
// (metadata tags, goto targets) are resolved by fusion and do not appear
// in the output.
//
// This is what a data plane like Open vSwitch does implicitly when it
// collapses a multi-table pipeline into a single flow cache (§5), so a
// rematch on a field an earlier stage rewrites reads the written value —
// the datapath reading of the paper's Fig. 3, not the relational one.
// The explicit construction also powers the round-trip property tests
// (Denormalize(Normalize(T)) ≡ T).
//
// Every stage must be drop-on-miss: a fall-through miss would require
// negated matches in the universal table, which the match-action
// abstraction cannot express in a single row. Denormalize also inherits
// fusion's refusals, wrapping fdd.ErrUnfusable: inconsistent field
// widths, a TTL match after dec_ttl, goto cycles and more than
// fdd.MaxRules paths.
func Denormalize(p *mat.Pipeline) (*mat.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i, st := range p.Stages {
		if !st.MissDrop {
			return nil, fmt.Errorf("core: denormalize: stage %d (%s) falls through on miss; not expressible in one table", i, st.Table.Name)
		}
	}

	// The output schema: non-link fields first, then non-link actions,
	// each in stage order of first appearance. An attribute may not be
	// both matched and written.
	var fields, actions mat.Schema
	seen := make(map[string]mat.Kind)
	for _, st := range p.Stages {
		for _, at := range st.Table.Schema {
			if mat.IsLinkAttr(at.Name) {
				continue
			}
			if prev, ok := seen[at.Name]; ok {
				if prev != at.Kind {
					return nil, fmt.Errorf("core: denormalize: attribute %s is both matched and written", at.Name)
				}
				continue
			}
			seen[at.Name] = at.Kind
			if at.Kind == mat.Field {
				fields = append(fields, at)
			} else {
				actions = append(actions, at)
			}
		}
	}
	out := mat.New(p.Name+"-denorm", slices.Concat(fields, actions))
	if len(p.Stages) > 0 {
		out.Provenance = p.Stages[0].Table.Provenance
	}

	prog, err := fdd.Fuse(p)
	if err != nil {
		return nil, fmt.Errorf("core: denormalize: %w", err)
	}
	col := make(map[string]int, len(prog.Cols))
	for ci, c := range prog.Cols {
		col[c.Name] = ci
	}
	seenRows := make(map[string]bool)
	for _, r := range prog.Rules {
		if r.Drop {
			continue
		}
		row := make(mat.Entry, 0, len(out.Schema))
		for _, at := range fields {
			row = append(row, r.Match[col[at.Name]])
		}
		for _, at := range actions {
			last := -1
			for ai, a := range r.Acts {
				if a.Attr == at.Name {
					last = ai
				}
			}
			if last < 0 {
				return nil, fmt.Errorf("core: denormalize: action %s not assigned on some path", at.Name)
			}
			row = append(row, mat.Exact(r.Acts[last].Value, at.Width))
		}
		if k := rowKey(row); !seenRows[k] {
			seenRows[k] = true
			out.Entries = append(out.Entries, row)
		}
	}
	return out, nil
}
