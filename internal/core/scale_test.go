package core

import (
	"testing"

	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/usecases"
)

// gatewayAt builds the services × backends gateway and its 3NF normal form
// under the use case's declared dependencies.
func gatewayAt(tb testing.TB, services, backends int) (*mat.Pipeline, *mat.Pipeline) {
	tb.Helper()
	g := usecases.Generate(services, backends, 1)
	tab, err := g.Universal()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Normalize(tab, Options{Target: NF3, Declared: g.Declared()})
	if err != nil {
		tb.Fatal(err)
	}
	return mat.SingleTable(tab), res.Pipeline
}

// TestEquivalenceAtTenThousandRules checks Theorem 1 at the size the
// paper's claims matter at: the 250 × 40 gateway (10 000 rules) against its
// normal form, exhaustively over all 347 004 records of the joint domain —
// and that a single corrupted cell of the normal form at that size comes
// back as a concrete counterexample, not as a sampled "no divergence seen".
func TestEquivalenceAtTenThousandRules(t *testing.T) {
	uni, nf := gatewayAt(t, 250, 40)
	if n := uni.EntryCount(); n != 10000 {
		t.Fatalf("gateway has %d rules, want 10000", n)
	}
	dom := netkat.DomainOfPipelines(uni, nf)
	if n := dom.Size(); n != 347004 {
		t.Fatalf("joint domain has %d records, want 347004", n)
	}
	res, err := netkat.Probe(dom, 0, uni, nf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil || !res.Exhaustive || res.Agreed != 347004 {
		t.Fatalf("equivalence at 10k rules: cex=%v exhaustive=%v agreed=%d, want none/true/347004",
			res.Cex, res.Exhaustive, res.Agreed)
	}

	// Plant: the last entry of the last stage sends its traffic to a port
	// no backend uses.
	bad := nf.Clone()
	last := bad.Stages[len(bad.Stages)-1].Table
	out := last.Schema.Index("out")
	if out < 0 {
		t.Fatalf("last stage of the normal form has no out column:\n%s", last.Schema)
	}
	last.Entries[len(last.Entries)-1][out] = mat.Exact(0xFFFF, 16)
	cex, exhaustive, err := netkat.EquivalentPipelines(uni, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatalf("one corrupted cell in 10 000 rules went unnoticed (exhaustive=%v)", exhaustive)
	}
	// The counterexample is concrete: the definition of the semantics
	// diverges on it.
	ra, errA := uni.Eval(cex.Input)
	rb, errB := bad.Eval(cex.Input)
	if errA != nil || errB != nil {
		t.Fatalf("counterexample does not evaluate: %v / %v", errA, errB)
	}
	if ra.Observable().Equal(rb.Observable()) || !ra.Observable().Equal(cex.A) || !rb.Observable().Equal(cex.B) {
		t.Fatalf("counterexample %v is not one under Pipeline.Eval: %v vs %v", cex, ra.Observable(), rb.Observable())
	}
}

// BenchmarkEquivalentPipelines sizes the exhaustive check of a gateway
// against its normal form at 160, 2 000 and 10 000 rules.
func BenchmarkEquivalentPipelines(b *testing.B) {
	for _, sz := range []struct {
		label              string
		services, backends int
	}{{"160", 8, 20}, {"2k", 100, 20}, {"10k", 250, 40}} {
		uni, nf := gatewayAt(b, sz.services, sz.backends)
		b.Run(sz.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cex, exhaustive, err := netkat.EquivalentPipelines(uni, nf, 0)
				if err != nil || cex != nil || !exhaustive {
					b.Fatalf("cex=%v exhaustive=%v err=%v", cex, exhaustive, err)
				}
			}
		})
	}
}
