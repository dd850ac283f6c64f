package difftest

import (
	"strings"
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
)

// shapeProps returns every property of a shape, in registry order.
func shapeProps(in *Shape) []Property {
	var out []Property
	for _, p := range Properties() {
		if p.Input == in {
			out = append(out, p)
		}
	}
	return out
}

// prop returns the named property.
func prop(t testing.TB, name string) Property {
	t.Helper()
	p, ok := Lookup(name)
	if !ok {
		t.Fatalf("no property %q", name)
	}
	return p
}

// check runs props on p and fails the test on a harness error.
func check(t testing.TB, p *Program, props []Property, cfg Config) []Divergence {
	t.Helper()
	divs, _, err := Run(p, props, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return divs
}

// TestExecuteClean: well-formed generated programs must pass every
// program property — every representation, every switch model, the
// oracle and the counters — the paper's Theorem 1, checked end to end.
// mafuzz runs the same check over thousands of seeds; this is the fast
// always-on slice.
func TestExecuteClean(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p := Generate(seed)
		for _, d := range check(t, p, shapeProps(Programs), DefaultConfig()) {
			t.Errorf("seed %d: %s", seed, d)
		}
		if t.Failed() {
			t.Fatalf("diverging table:\n%s", p.Table)
		}
	}
}

// TestExecuteCaveatDiverges: every planted Fig. 3 program must produce at
// least one divergence, all of them in the planted variant, including the
// two signatures of a 1NF violation — the relational evaluator's
// ambiguity error and/or a wrong verdict from a silently tie-breaking
// classifier.
func TestExecuteCaveatDiverges(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p, err := PlantCaveat(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		divs := check(t, p, shapeProps(Programs), DefaultConfig())
		if len(divs) == 0 {
			t.Fatalf("seed %d: caveat program did not diverge:\n%s", seed, p.Table)
		}
		for _, d := range divs {
			// The fused twin of the planted pipeline inherits its
			// divergence — fusion reproduces datapath semantics.
			if strings.TrimSuffix(d.Variant, "+fused") != "fig3-caveat" {
				t.Fatalf("seed %d: divergence outside the planted variant: %v", seed, divs)
			}
		}
	}
}

// TestExecuteDetectsBrokenPipeline: hand-build the paper's Fig. 3 instance
// with the caveat hook and confirm the relational and compiled layers
// flag it. This guards the harness itself: one that cannot see a planted
// bug would happily report thousands of clean iterations.
func TestExecuteDetectsBrokenPipeline(t *testing.T) {
	sch := mat.Schema{mat.F(packet.FieldVLAN, 12), mat.F(packet.FieldTCPDst, 16), mat.A("out", 16)}
	tab := mat.New("fig3", sch)
	// out is determined by (vlan, tcp_dst) jointly, and {out} → {tcp_dst}
	// holds.
	tab.Add(mat.Exact(1, 12), mat.Exact(80, 16), mat.Exact(1, 16))
	tab.Add(mat.Exact(1, 12), mat.Exact(443, 16), mat.Exact(2, 16))
	tab.Add(mat.Exact(2, 12), mat.Exact(80, 16), mat.Exact(3, 16))
	tab.Add(mat.Exact(2, 12), mat.Exact(443, 16), mat.Exact(4, 16))

	mk := func(vlan uint16, dport uint16) *packet.Packet {
		pk := packet.TCP4(0xa, 0xb, 0x0a000001, 0x0a000002, 1234, dport)
		pk.HasVLAN = true
		pk.VLANID = vlan
		var q packet.Packet
		if err := q.ParseInto(pk.Marshal(nil)); err != nil {
			t.Fatal(err)
		}
		return &q
	}
	p := &Program{
		Note:    "hand-built fig3",
		Caveat:  true,
		Table:   tab,
		Packets: []*packet.Packet{mk(1, 80), mk(1, 443), mk(2, 80), mk(2, 443), mk(3, 80)},
	}
	var sawEval, sawRuntime bool
	for _, d := range check(t, p, shapeProps(Programs), DefaultConfig()) {
		if strings.TrimSuffix(d.Variant, "+fused") != "fig3-caveat" {
			t.Fatalf("divergence outside planted variant: %s", d)
		}
		switch d.Kind {
		case KindEval:
			sawEval = true
			if !strings.Contains(d.Detail, "ambiguous") {
				t.Fatalf("eval divergence without ambiguity: %s", d)
			}
		case KindVerdict, KindConstruct, KindOracle, KindRelational:
			sawRuntime = true
		}
	}
	if !sawEval {
		t.Fatal("relational ambiguity not detected")
	}
	if !sawRuntime {
		t.Fatal("no compiled-layer divergence detected")
	}
}

// TestExecuteFusedTwinsRun: the compiled layers must actually execute the
// fused twins — on the planted rematch hazard the fused twin of the
// rematch decomposition has to reproduce the verdict divergence (fusion
// resolves the re-match against the written constant, i.e. datapath
// semantics), not silently drop out of the matrix.
func TestExecuteFusedTwinsRun(t *testing.T) {
	divs := check(t, PlantRematchHazard(2), []Property{prop(t, "forwarding")}, DefaultConfig())
	fused := 0
	for _, d := range divs {
		if strings.HasSuffix(d.Variant, "+fused") {
			fused++
			if d.Kind != KindVerdict {
				t.Fatalf("fused twin diverged with kind %s, want verdict: %s", d.Kind, d)
			}
		}
	}
	if fused == 0 {
		t.Fatalf("no fused-twin divergence on the hazard program: %v", divs)
	}
}

// TestExecuteCleanOnFig3Universal: the Fig. 3 *universal* table is a fine
// 1NF program — without the Caveat flag it must pass every property. The
// trap is the decomposition, not the table.
func TestExecuteCleanOnFig3Universal(t *testing.T) {
	p, err := PlantCaveat(3)
	if err != nil {
		t.Fatal(err)
	}
	p.Caveat = false
	if divs := check(t, p, shapeProps(Programs), DefaultConfig()); len(divs) != 0 {
		t.Fatalf("universal fig3 table diverged without the planted pipeline: %v", divs)
	}
}

// TestExecuteHazardSignature: the set-field/rematch hazard must show the
// signature that motivates runtime differential testing — the relational
// evaluator and the NetKAT oracle certify the decomposition equivalent,
// while every compiled executor diverges on the verdict.
func TestExecuteHazardSignature(t *testing.T) {
	p := PlantRematchHazard(2)
	divs := check(t, p, []Property{prop(t, "relational"), prop(t, "oracle"), prop(t, "forwarding")}, DefaultConfig())
	if len(divs) == 0 {
		t.Fatalf("hazard program did not diverge:\n%s", p.Table)
	}
	for _, d := range divs {
		if d.Kind != KindVerdict {
			t.Fatalf("expected only verdict divergences, got %s", d)
		}
		if d.Model == "" {
			t.Fatalf("hazard divergence at the relational/oracle layer: %s", d)
		}
		if !strings.Contains(d.Variant, "rematch") && !strings.Contains(d.Variant, "const") {
			t.Fatalf("divergence outside the rematch/const decomposition: %s", d)
		}
	}
}
