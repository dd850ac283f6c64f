package main

import (
	"fmt"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
)

// referenceVerdicts computes the expected outcome of the frames at idx
// under the relational semantics of the universal table (mat.Pipeline.Eval
// on the decoded record) — never a switch model. A frame no decoder can
// accept must drop.
func referenceVerdicts(universal *mat.Table, dec *packet.Decoder, frames [][]byte, idx []int) ([]verdictRef, error) {
	oracle := mat.SingleTable(universal)
	view := dec.NewView()
	ref := make([]verdictRef, len(idx))
	for k, i := range idx {
		if err := dec.ParseInto(view, frames[i]); err != nil {
			ref[k] = verdictRef{drop: true}
			continue
		}
		out, err := oracle.Eval(view.Record())
		if err != nil {
			return nil, fmt.Errorf("reference: frame %d: %w", i, err)
		}
		ref[k] = verdictRef{drop: out[mat.DropAttr] == 1, port: uint16(out["out"])}
	}
	return ref, nil
}

// tally counts outputs checked against a reference and how many disagreed.
// failed/attempted is the run's failed ratio; any non-zero value fails the
// run.
type tally struct {
	attempted int
	failed    int
	// first keeps the first few disagreements for the error report.
	first []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, s := range o.first {
		if len(t.first) < 5 {
			t.first = append(t.first, s)
		}
	}
}

// checkVerdicts compares verdicts (index-aligned with a trace) against the
// reference computed for the trace's frames at idx.
func checkVerdicts(what string, idx []int, ref []verdictRef, got []dataplane.Verdict, t *tally) {
	for k, i := range idx {
		want, v := ref[k], got[i]
		ok := v.Drop == want.drop && (v.Drop || v.Port == want.port)
		t.check(ok, "%s: frame %d: got drop=%v port=%d, reference drop=%v port=%d",
			what, i, v.Drop, v.Port, want.drop, want.port)
	}
}
