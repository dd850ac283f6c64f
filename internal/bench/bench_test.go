package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"manorm/internal/usecases"
)

func TestFootprintMatchesClosedForms(t *testing.T) {
	rows, err := Footprint([]int{3, 10, 20}, []int{2, 8, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Universal != 4*r.M*r.N {
			t.Errorf("N=%d M=%d: universal = %d, want 4MN = %d", r.N, r.M, r.Universal, 4*r.M*r.N)
		}
		if want := r.N * (3 + 2*r.M); r.Goto != want {
			t.Errorf("N=%d M=%d: goto = %d, want N(3+2M) = %d", r.N, r.M, r.Goto, want)
		}
		// 4MN / N(3+2M) = 4M/(3+2M): 1.68 at M=8, 1.83 at M=16, → 2.
		if r.M >= 8 && r.Ratio < 1.6 {
			t.Errorf("N=%d M=%d: ratio %.2f, want approaching 2", r.N, r.M, r.Ratio)
		}
	}
}

func TestControlAndMonitorShapes(t *testing.T) {
	cfg := QuickConfig()
	ctl, err := Control(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byRep := map[usecases.Representation]*ControlRow{}
	for _, r := range ctl {
		byRep[r.Rep] = r
	}
	if byRep[usecases.RepUniversal].PortChange != cfg.Backends {
		t.Errorf("universal port change = %d, want M=%d", byRep[usecases.RepUniversal].PortChange, cfg.Backends)
	}
	if byRep[usecases.RepGoto].PortChange != 1 || byRep[usecases.RepMetadata].VIPChange != 1 {
		t.Errorf("normalized updates not 1: %+v", byRep)
	}

	mon, err := Monitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mon {
		want := 1
		if r.Rep == usecases.RepUniversal {
			want = cfg.Backends
		}
		if r.Counters != want {
			t.Errorf("%s counters = %d, want %d", r.Rep, r.Counters, want)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	rows, err := Fig4(DefaultUpdateRates(), QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var uni0, uni100, goto0, goto100 float64
	for _, r := range rows {
		switch {
		case r.Rep == usecases.RepUniversal && r.UpdatesPerSec == 0:
			uni0 = r.RateMpps
		case r.Rep == usecases.RepUniversal && r.UpdatesPerSec == 100:
			uni100 = r.RateMpps
		case r.Rep == usecases.RepGoto && r.UpdatesPerSec == 0:
			goto0 = r.RateMpps
		case r.Rep == usecases.RepGoto && r.UpdatesPerSec == 100:
			goto100 = r.RateMpps
		}
	}
	// Paper: ~20× loss for universal at 100 upd/s, none for normalized.
	if ratio := uni0 / uni100; ratio < 10 {
		t.Errorf("universal loss at 100 upd/s = %.1fx, want >= 10x", ratio)
	}
	if goto100 < 0.9*goto0 {
		t.Errorf("normalized rate dropped: %.2f -> %.2f", goto0, goto100)
	}
	// Latency: normalized ~25%+ above universal, flat across rates.
	for _, r := range rows {
		if r.Rep == usecases.RepUniversal && r.DelayUs != 6.4 {
			t.Errorf("universal delay = %.1f, want 6.4", r.DelayUs)
		}
		if r.Rep == usecases.RepGoto && r.DelayUs != 8.4 {
			t.Errorf("goto delay = %.1f, want 8.4", r.DelayUs)
		}
	}
	// Churn ratio is the paper's 8×.
	for _, r := range rows {
		want := 1
		if r.Rep == usecases.RepUniversal {
			want = 8
		}
		if r.ModsPerUpdate != want {
			t.Errorf("%s mods/update = %d, want %d", r.Rep, r.ModsPerUpdate, want)
		}
	}
}

// retryShape reruns a load-sensitive timing assertion a few times before
// declaring failure: the shapes are robust, but a parallel test load can
// perturb any single measurement.
func retryShape(t *testing.T, attempts int, check func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = check(); err == nil {
			return
		}
	}
	t.Error(err)
}

func TestMeasureStaticESwitchShape(t *testing.T) {
	// The Table 1 headline: ESwitch gains >= 1.3x throughput and loses
	// >= 25% latency when the pipeline is normalized (paper: 1.56x and
	// ~0.58x). Quick config keeps this test affordable; the full run
	// lives in the root benchmarks.
	cfg := QuickConfig()
	retryShape(t, 3, func() error {
		uni, err := MeasureStatic("eswitch", usecases.RepUniversal, cfg)
		if err != nil {
			return err
		}
		gt, err := MeasureStatic("eswitch", usecases.RepGoto, cfg)
		if err != nil {
			return err
		}
		if gt.RateMpps < 1.3*uni.RateMpps {
			return fmt.Errorf("eswitch goto/universal rate = %.2f/%.2f = %.2fx, want >= 1.3x",
				gt.RateMpps, uni.RateMpps, gt.RateMpps/uni.RateMpps)
		}
		if gt.DelayUs >= uni.DelayUs {
			return fmt.Errorf("eswitch goto delay %.0f >= universal %.0f", gt.DelayUs, uni.DelayUs)
		}
		if uni.Templates[0] != "ternary" || gt.Templates[0] != "exact" {
			return fmt.Errorf("templates: universal=%v goto=%v", uni.Templates, gt.Templates)
		}
		return nil
	})
}

func TestMeasureStaticAgnosticSwitches(t *testing.T) {
	cfg := QuickConfig()
	for _, sw := range []string{"ovs", "lagopus", "noviflow"} {
		sw := sw
		retryShape(t, 3, func() error {
			uni, err := MeasureStatic(sw, usecases.RepUniversal, cfg)
			if err != nil {
				return err
			}
			gt, err := MeasureStatic(sw, usecases.RepGoto, cfg)
			if err != nil {
				return err
			}
			ratio := gt.RateMpps / uni.RateMpps
			if ratio < 0.6 || ratio > 1.6 {
				return fmt.Errorf("%s: goto/universal rate ratio = %.2f, want ~1 (agnostic)", sw, ratio)
			}
			return nil
		})
	}
	// NoviFlow: line rate and the small latency penalty for goto.
	uni, _ := MeasureStatic("noviflow", usecases.RepUniversal, cfg)
	gt, _ := MeasureStatic("noviflow", usecases.RepGoto, cfg)
	if uni.RateMpps != 10.73 || gt.RateMpps != 10.73 {
		t.Errorf("noviflow rates = %.2f/%.2f, want 10.73", uni.RateMpps, gt.RateMpps)
	}
	if gt.DelayUs <= uni.DelayUs {
		t.Errorf("noviflow goto delay %.1f <= universal %.1f", gt.DelayUs, uni.DelayUs)
	}
}

func TestL3ExperimentShrinks(t *testing.T) {
	rows, err := L3Experiment([][3]int{{32, 8, 3}, {128, 16, 4}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NormalizedFields >= r.UniversalFields {
			t.Errorf("%d prefixes: no shrinkage (%d -> %d)", r.Prefixes, r.UniversalFields, r.NormalizedFields)
		}
		if r.Stages != 4 {
			t.Errorf("%d prefixes: %d stages, want 4 (Fig. 2c shape)", r.Prefixes, r.Stages)
		}
		if !r.Verified {
			t.Errorf("%d prefixes: equivalence not verified", r.Prefixes)
		}
	}
}

func TestCaveatAndSDX(t *testing.T) {
	c, err := Caveat()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Rejected {
		t.Errorf("Fig. 3 decomposition not rejected")
	}
	s, err := SDX()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equivalent || s.NaiveInbound1NF || s.PipelineStages != 3 {
		t.Errorf("SDX result wrong: %+v", s)
	}
}

func TestJoinsAblation(t *testing.T) {
	rows, err := Joins(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var uni, gt *JoinRow
	for _, r := range rows {
		switch r.Rep {
		case usecases.RepUniversal:
			uni = r
		case usecases.RepGoto:
			gt = r
		}
	}
	if gt.Fields >= uni.Fields {
		t.Errorf("goto fields %d >= universal %d", gt.Fields, uni.Fields)
	}
	if gt.RateMpps <= uni.RateMpps {
		t.Errorf("goto rate %.2f <= universal %.2f on eswitch", gt.RateMpps, uni.RateMpps)
	}
}

func TestDepthAblation(t *testing.T) {
	rows, err := Depth(64, 8, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Footprint decreases with depth; stages increase.
	if !(rows[0].Fields > rows[1].Fields && rows[1].Fields > rows[2].Fields) {
		t.Errorf("fields not decreasing: %d, %d, %d", rows[0].Fields, rows[1].Fields, rows[2].Fields)
	}
	if !(rows[0].Stages < rows[1].Stages && rows[1].Stages <= rows[2].Stages) {
		t.Errorf("stages not increasing: %d, %d, %d", rows[0].Stages, rows[1].Stages, rows[2].Stages)
	}
	if rows[2].Violations != 0 {
		t.Errorf("3NF leaves %d violations", rows[2].Violations)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	cfg := QuickConfig()

	fp, _ := Footprint([]int{3}, []int{8}, 1)
	RenderFootprint(&buf, fp)
	ctl, _ := Control(cfg)
	RenderControl(&buf, ctl)
	mon, _ := Monitor(cfg)
	RenderMonitor(&buf, mon)
	fig4, _ := Fig4([]float64{0, 100}, cfg)
	RenderFig4(&buf, fig4)
	l3, _ := L3Experiment([][3]int{{16, 4, 2}}, 3)
	RenderL3(&buf, l3)
	cv, _ := Caveat()
	RenderCaveat(&buf, cv)
	sdx, _ := SDX()
	RenderSDX(&buf, sdx)
	dep, _ := Depth(16, 4, 2, 3)
	RenderDepth(&buf, dep)

	out := buf.String()
	for _, want := range []string{"E1", "E2", "E3", "Fig. 4", "E6", "E7", "E8", "A2", "universal", "goto"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestNF4Experiment(t *testing.T) {
	rows, err := NF4([][3]int{{4, 4, 4}, {8, 8, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Equivalent {
			t.Errorf("%dx%dx%d: MVD split not equivalent", r.Subscribers, r.Dests, r.Ports)
		}
		if r.SplitFields >= r.UniversalFields {
			t.Errorf("%dx%dx%d: no shrinkage (%d -> %d)",
				r.Subscribers, r.Dests, r.Ports, r.UniversalFields, r.SplitFields)
		}
		if r.Stages != 3 {
			t.Errorf("stages = %d, want 3", r.Stages)
		}
		if r.UniversalEntries != r.Subscribers*r.Dests*r.Ports {
			t.Errorf("universal entries = %d, want the full cross product %d",
				r.UniversalEntries, r.Subscribers*r.Dests*r.Ports)
		}
	}
	var buf bytes.Buffer
	RenderNF4(&buf, rows)
	if !strings.Contains(buf.String(), "->>") {
		t.Errorf("NF4 render missing MVD arrow: %s", buf.String())
	}
}
