package difftest

import (
	"strings"
	"testing"

	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// TestIncrementalMatchesFromScratch: on every step of seeded flow-mod
// churn, a switch kept up to date by incremental barrier commits must be
// indistinguishable from one installed from scratch — same commit
// verdicts as the full check, same forwarding, same reported shape — on
// all four models and on the universal, metadata and goto forms. The run
// must actually have reached accepted and rejected barriers on each.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	type tally struct{ accepted, rejected int }
	seen := make(map[string]*tally)
	// Generated programs, plus the gateway & load balancer: the one shape
	// whose goto form is always distinct from its metadata form.
	var programs []*Program
	for seed := int64(1); seed <= 30; seed++ {
		programs = append(programs, Generate(seed, DefaultGenConfig()))
	}
	g := usecases.Generate(6, 4, 7)
	gwlb, err := g.Universal()
	if err != nil {
		t.Fatal(err)
	}
	programs = append(programs, &Program{Seed: 31, Note: "gwlb", Table: gwlb, Packets: trafficgen.GwLB(g, 48, 0.9, 3).Packets()})
	for _, p := range programs {
		steps := 6
		if p.Note == "gwlb" {
			steps = 50 // seven stages to spread the batches over
		}
		divs, runs, err := ExecuteIncremental(p, steps, DefaultExecConfig())
		if err != nil {
			t.Fatalf("%s: %v", p.Note, err)
		}
		for _, d := range divs {
			t.Errorf("%s: %s", p.Note, d)
		}
		if t.Failed() {
			t.Fatalf("diverging table:\n%s", p.Table)
		}
		for _, r := range runs {
			rep := r.Variant[strings.LastIndexByte(r.Variant, '-')+1:]
			k := rep + "@" + r.Model
			if seen[k] == nil {
				seen[k] = &tally{}
			}
			seen[k].accepted += r.Accepted
			seen[k].rejected += r.Rejected
		}
	}
	for _, rep := range []string{"universal", "metadata", "goto"} {
		for _, model := range switches.ModelNames() {
			got := seen[rep+"@"+model]
			if got == nil || got.accepted == 0 || got.rejected == 0 {
				t.Errorf("%s on %s: want accepted and rejected barriers, got %+v", rep, model, got)
			}
		}
	}
}
