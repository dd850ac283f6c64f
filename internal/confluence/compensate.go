package confluence

import (
	"fmt"

	"manorm/internal/mat"
	"manorm/internal/openflow"
)

// CompensationReport is the well-founded-compensation verdict: for every
// prefix of every batch, applying the prefix and then the inverses of
// its applied mods in reverse order must restore the base state exactly.
type CompensationReport struct {
	OK bool `json:"ok"`
	// Prefixes counts the (batch, prefix-length) rollbacks checked.
	Prefixes int `json:"prefixes"`
	// Batch/Prefix locate the first failing rollback; Detail explains it.
	Batch  int    `json:"batch,omitempty"`
	Prefix int    `json:"prefix,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// checkCompensation verifies WFC against the base state. Each mod's
// inverse is computed against the state it executes on (a delete's
// inverse must restore the row's prior actions); mods the pipeline
// rejects have no effect and need no compensation.
func checkCompensation(base *mat.Pipeline, batches [][]openflow.FlowMod) (*CompensationReport, error) {
	want, err := CanonicalState(base)
	if err != nil {
		return nil, err
	}
	rep := &CompensationReport{OK: true}
	for bi, batch := range batches {
		for k := 1; k <= len(batch); k++ {
			p := base.Clone()
			var undo []openflow.FlowMod
			for i := 0; i < k; i++ {
				inv, invErr := inverse(p, &batch[i])
				if err := openflow.ApplyToPipeline(p, &batch[i]); err != nil {
					continue // rejected: no state change to compensate
				}
				if invErr != nil {
					return nil, fmt.Errorf("confluence: no inverse for applied mod %d of batch %d: %w", i, bi, invErr)
				}
				undo = append(undo, inv)
			}
			fail := func(format string, args ...any) {
				rep.OK = false
				rep.Batch = bi
				rep.Prefix = k
				rep.Detail = fmt.Sprintf(format, args...)
			}
			rolledBack := true
			for i := len(undo) - 1; i >= 0; i-- {
				if err := openflow.ApplyToPipeline(p, &undo[i]); err != nil {
					fail("rollback of batch %d prefix %d rejected its own inverse: %v", bi, k, err)
					rolledBack = false
					break
				}
			}
			if !rolledBack {
				return rep, nil
			}
			got, err := CanonicalState(p)
			if err != nil {
				return nil, err
			}
			if got != want {
				fail("rollback of batch %d prefix %d did not restore the base state", bi, k)
				return rep, nil
			}
			rep.Prefixes++
		}
	}
	return rep, nil
}

// inverse computes the flow-mod undoing f relative to the current state
// of p (before f is applied): an add inverts to a delete of the same
// match, a delete to an add restoring the displaced row's actions, a
// modify to a modify writing the prior actions back.
func inverse(p *mat.Pipeline, f *openflow.FlowMod) (openflow.FlowMod, error) {
	if int(f.TableID) >= len(p.Stages) {
		return openflow.FlowMod{}, fmt.Errorf("table %d out of range", f.TableID)
	}
	switch f.Command {
	case openflow.FlowAdd:
		return openflow.FlowMod{
			Command: openflow.FlowDelete, TableID: f.TableID,
			Match: append([]openflow.MatchField(nil), f.Match...),
		}, nil
	case openflow.FlowDelete, openflow.FlowModify:
		t := p.Stages[f.TableID].Table
		e, err := findRow(t, f.Match)
		if err != nil {
			return openflow.FlowMod{}, err
		}
		cmd := openflow.FlowAdd
		if f.Command == openflow.FlowModify {
			cmd = openflow.FlowModify
		}
		inv := openflow.FlowMod{
			Command: cmd, TableID: f.TableID,
			Match: append([]openflow.MatchField(nil), f.Match...),
		}
		for _, ai := range t.Schema.Actions() {
			inv.Actions = append(inv.Actions, openflow.ActionField{
				Name: t.Schema[ai].Name, Width: t.Schema[ai].Width, Value: e[ai].Bits,
			})
		}
		return inv, nil
	default:
		return openflow.FlowMod{}, fmt.Errorf("unknown flow-mod command %d", f.Command)
	}
}

// findRow locates the entry addressed by the match fields, mirroring the
// agent's key semantics: unnamed fields default to Any, named cells are
// canonicalized to the schema width, and the entry must match exactly.
func findRow(t *mat.Table, fields []openflow.MatchField) (mat.Entry, error) {
	cells := make([]mat.Cell, len(t.Schema))
	for i := range cells {
		cells[i] = mat.Any()
	}
	for _, f := range fields {
		i := t.Schema.Index(f.Name)
		if i < 0 {
			return nil, fmt.Errorf("table %s has no match field %q", t.Name, f.Name)
		}
		if t.Schema[i].Kind != mat.Field {
			return nil, fmt.Errorf("attribute %q is not a match field", f.Name)
		}
		cells[i] = f.Cell.Canonical(t.Schema[i].Width)
	}
	for _, e := range t.Entries {
		same := true
		for _, fi := range t.Schema.Fields() {
			if e[fi] != cells[fi] {
				same = false
				break
			}
		}
		if same {
			return e, nil
		}
	}
	return nil, fmt.Errorf("no entry for match in table %s", t.Name)
}
