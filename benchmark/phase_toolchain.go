package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"manorm/internal/confluence"
	"manorm/internal/controlplane"
	"manorm/internal/core"
	"manorm/internal/difftest"
	"manorm/internal/fd"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/switches"
	"manorm/internal/usecases"
)

// Minimum passes behind the toolchain medians. verify_equiv_s takes ~2 s a
// pass on 2000 rules, so three passes is what the run-time budget allows.
const (
	normalizeMinPasses  = 7
	verifyMinPasses     = 3
	confluenceMinCycles = 3
)

// confluenceCase is one set of concurrent flow-mod batches against a base
// program, with the verdict the verifier must reach.
type confluenceCase struct {
	Name      string
	Base      *mat.Pipeline
	Batches   [][]openflow.FlowMod
	Opts      confluence.Options
	Confluent bool
}

// toolchainInputs is what the toolchain phase and the normal-form layer
// probes read; a pure function of (scenario, seed).
type toolchainInputs struct {
	// normalizeTable is the universal table normalize_ms runs on.
	normalizeTable *mat.Table
	// verifyCfg/verifyTable/verifyNormalized are the program
	// verify_equiv_s checks: the universal table against its normal form.
	verifyCfg        *usecases.GwLB
	verifyTable      *mat.Table
	verifyNormalized *mat.Pipeline
	// cases is the seeded confluence case list on the goto build of
	// verifyCfg, plus one planted non-confluent pair.
	cases []confluenceCase
}

// normalForm is every artefact of one pass of the toolchain.
type normalForm struct {
	fds       []fd.FD
	result    *core.Result
	gotoP     *mat.Pipeline
	fused     *fdd.Program
	installed *switches.ESwitch
}

// The toolchain's stages, named by the layer each call goes into.
const (
	stageMine      = "fd.mine"
	stageNormalize = "core.normalize"
	stageToGoto    = "core.togoto"
	stageFuse      = "fdd.fuse"
	stageInstall   = "switches.install"
)

// toNormalForm is the toolchain end to end: mine the dependencies,
// synthesize the normal form, convert the joins to goto_table, fuse, and
// install the fused program into an ESwitch. observe, when not nil, is
// told when each stage started and ended (the traced pass); the untraced
// pass reads no clock between stages.
func toNormalForm(t *mat.Table, observe func(stage string, start, end time.Time)) (*normalForm, error) {
	nf := &normalForm{}
	var mark time.Time
	if observe != nil {
		mark = time.Now()
	}
	lap := func(stage string) {
		if observe != nil {
			now := time.Now()
			observe(stage, mark, now)
			mark = now
		}
	}
	nf.fds = fd.Mine(t)
	lap(stageMine)
	var err error
	if nf.result, err = core.Normalize(t, core.Options{Declared: nf.fds}); err != nil {
		return nil, err
	}
	lap(stageNormalize)
	if nf.gotoP, err = core.ToGoto(nf.result.Pipeline); err != nil {
		return nil, err
	}
	lap(stageToGoto)
	if nf.fused, err = fdd.Fuse(nf.gotoP); err != nil {
		return nil, err
	}
	lap(stageFuse)
	nf.gotoP.Fused = true
	nf.installed = switches.NewESwitch()
	if err := nf.installed.Install(nf.gotoP); err != nil {
		return nil, err
	}
	lap(stageInstall)
	return nf, nil
}

func universalOf(sz size, seed int64) (*usecases.GwLB, *mat.Table, error) {
	g := gateway(sz, seed)
	t, err := g.Universal()
	return g, t, err
}

func buildToolchain(sc scenario, seed int64) (*toolchainInputs, error) {
	in := &toolchainInputs{}
	var err error
	if _, in.normalizeTable, err = universalOf(sc.Normalize, seed); err != nil {
		return nil, err
	}
	if in.verifyCfg, in.verifyTable, err = universalOf(sc.Verify, seed); err != nil {
		return nil, err
	}
	res, err := core.Normalize(in.verifyTable, core.Options{Declared: fd.Mine(in.verifyTable)})
	if err != nil {
		return nil, err
	}
	in.verifyNormalized = res.Pipeline
	in.cases, err = confluenceCases(in.verifyCfg, seed)
	return in, err
}

// confluenceCases builds the seeded case list: three concurrent port
// changes (twice, on different services), a catch-all racing a port change
// of the same service and of another one (compensation checked), and the
// planted non-confluent pair.
func confluenceCases(g *usecases.GwLB, seed int64) ([]confluenceCase, error) {
	base, err := g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	svcs := rand.New(rand.NewSource(seed + 7)).Perm(len(g.Services))
	portChange := func(svc, k int) ([]openflow.FlowMod, error) {
		p, err := controlplane.PlanPortChange(g, usecases.RepGoto, svc, uint16(30000+k))
		if err != nil {
			return nil, err
		}
		return p.Mods, nil
	}
	var cases []confluenceCase
	for c := 0; c < 2; c++ {
		var batches [][]openflow.FlowMod
		for k := 0; k < 3; k++ {
			mods, err := portChange(svcs[3*c+k], 3*c+k)
			if err != nil {
				return nil, err
			}
			batches = append(batches, mods)
		}
		cases = append(cases, confluenceCase{
			Name: fmt.Sprintf("port-change-x3-%d", c), Base: base, Batches: batches, Confluent: true,
		})
	}
	for c, pair := range [][2]int{{svcs[6], svcs[6]}, {svcs[7], svcs[8]}} {
		ca, err := controlplane.PlanCatchAll(g, usecases.RepGoto, pair[0])
		if err != nil {
			return nil, err
		}
		mods, err := portChange(pair[1], 10+c)
		if err != nil {
			return nil, err
		}
		cases = append(cases, confluenceCase{
			Name: fmt.Sprintf("catch-all-vs-port-change-%d", c), Base: base,
			Batches:   [][]openflow.FlowMod{ca.Mods, mods},
			Opts:      confluence.Options{Compensation: true},
			Confluent: true,
		})
	}
	planted := difftest.PlantConfluencePair(seed)
	cases = append(cases, confluenceCase{
		Name: "planted-pair", Base: mat.SingleTable(planted.Table), Batches: planted.Batches, Confluent: false,
	})
	return cases, nil
}

// checkCase runs the verifier on one case and compares the verdict.
func checkCase(c confluenceCase, t *tally) (*confluence.Verdict, error) {
	v, err := confluence.Check(c.Base, c.Batches, c.Opts)
	if err != nil {
		return nil, fmt.Errorf("confluence case %s: %w", c.Name, err)
	}
	t.check(v.Confluent == c.Confluent, "confluence case %s: verdict confluent=%v, expected %v", c.Name, v.Confluent, c.Confluent)
	return v, nil
}

// toolchainPhase measures the three toolchain metrics and checks the
// toolchain's outputs.
type toolchainPhase struct {
	in                            *toolchainInputs
	normalize, verify, confluence *passes
	// nf is the last normal form normalize_ms produced and tally collects
	// the checks the timed passes make themselves.
	nf    *normalForm
	tally tally
}

func newToolchainPhase(in *toolchainInputs) *toolchainPhase {
	p := &toolchainPhase{in: in}
	p.normalize = &passes{
		cell: cell{Name: "normalize_ms", Unit: "ms", Lower: true}, minPasses: normalizeMinPasses, value: durationIn(time.Millisecond),
		fn: func() (err error) {
			p.nf, err = toNormalForm(in.normalizeTable, nil)
			return err
		},
	}
	p.verify = &passes{
		cell: cell{Name: "verify_equiv_s", Unit: "s", Lower: true}, minPasses: verifyMinPasses, value: durationIn(time.Second),
		fn: func() error {
			err := core.VerifyEquivalent(in.verifyTable, in.verifyNormalized)
			p.tally.check(err == nil, "VerifyEquivalent(universal, normalized): %v", err)
			return nil
		},
	}
	// One pass is one verdict per case; a pass is worth cases over its
	// duration, so cases of unequal cost weigh the same in every pass.
	p.confluence = &passes{
		cell: cell{Name: "confluence_verdicts_per_s", Unit: "verdicts/s"}, minPasses: confluenceMinCycles,
		value: func(d time.Duration) float64 { return float64(len(in.cases)) / d.Seconds() },
		fn: func() error {
			for _, cs := range in.cases {
				if _, err := checkCase(cs, &p.tally); err != nil {
					return err
				}
			}
			return nil
		},
	}
	return p
}

// cells returns the normalize, verify and confluence cells.
func (p *toolchainPhase) cells(b budget) []sampler {
	p.normalize.budget, p.verify.budget, p.confluence.budget = b.normalize, b.verify, b.confluence
	return []sampler{p.normalize, p.verify, p.confluence}
}

// finish records the cells and checks the toolchain's outputs.
func (p *toolchainPhase) finish(rec *recorder) error {
	rec.cell(p.normalize.cell)
	rec.cell(p.verify.cell)
	p.confluence.Samples *= len(p.in.cases)
	rec.cell(p.confluence.cell)
	rec.tally.add(p.tally)
	return p.check(p.nf, &rec.tally)
}

// check verifies the toolchain's outputs beyond the equivalence check the
// timed cell already ran: the round trip through Denormalize, and that
// fingerprints identify the program, not how it was written down — the
// hand-built goto program and the toolchain's own goto form of the
// universal table share one, and entry order does not change it.
func (p *toolchainPhase) check(nf *normalForm, t *tally) error {
	back, err := core.Denormalize(nf.result.Pipeline)
	if err != nil {
		return fmt.Errorf("denormalize: %w", err)
	}
	t.check(sameRows(back, p.in.normalizeTable), "Denormalize(Normalize(T)) differs from T (%d vs %d entries)",
		len(back.Entries), len(p.in.normalizeTable.Entries))

	handBuilt, err := p.in.verifyCfg.Build(usecases.RepGoto)
	if err != nil {
		return err
	}
	derived, err := core.ToGoto(p.in.verifyNormalized)
	if err != nil {
		return err
	}
	shuffled, err := p.in.verifyCfg.Build(usecases.RepGoto)
	if err != nil {
		return err
	}
	for _, st := range shuffled.Stages {
		e := st.Table.Entries
		rand.New(rand.NewSource(int64(len(e)))).Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
	}
	var prints []string
	for _, pl := range []*mat.Pipeline{handBuilt, derived, shuffled} {
		fp, err := confluence.Fingerprint(pl)
		if err != nil {
			return fmt.Errorf("fingerprint %s: %w", pl.Name, err)
		}
		prints = append(prints, fp)
	}
	t.check(prints[0] == prints[1], "fingerprint of the hand-built goto program %s differs from ToGoto(Normalize(universal)) %s", prints[0], prints[1])
	t.check(prints[0] == prints[2], "fingerprint changed with entry order: %s vs %s", prints[0], prints[2])
	return nil
}

// sameRows reports whether two tables hold the same set of rows, comparing
// cells by attribute name so that column order does not matter (Denormalize
// orders columns by first appearance along the pipeline).
func sameRows(a, b *mat.Table) bool {
	if len(a.Schema) != len(b.Schema) || len(a.Entries) != len(b.Entries) {
		return false
	}
	col := make([]int, len(a.Schema)) // a's column i is b's column col[i]
	for i, at := range a.Schema {
		if col[i] = b.Schema.Index(at.Name); col[i] < 0 || b.Schema[col[i]] != at {
			return false
		}
	}
	rows := make(map[string]int, len(b.Entries))
	key := func(e mat.Entry, at func(i int) int) string {
		var sb strings.Builder
		for i := range e {
			c := e[at(i)]
			fmt.Fprintf(&sb, "%x/%d,", c.Bits, c.PLen)
		}
		return sb.String()
	}
	for _, e := range b.Entries {
		rows[key(e, func(i int) int { return col[i] })]++
	}
	for _, e := range a.Entries {
		k := key(e, func(i int) int { return i })
		if rows[k] == 0 {
			return false
		}
		rows[k]--
	}
	return true
}
