package main

import (
	"fmt"
	"time"

	"manorm/internal/fd"
	"manorm/internal/mat"
	"manorm/internal/usecases"
)

// sweepPasses is how often the toolchain runs on each program of the size
// sweep; stage times are medians over the passes.
const sweepPasses = 3

// sweepProgram is one program of the toolchain's size sweep with what the
// passes over it produced. Four sizes give every stage a scaling exponent,
// not a point.
type sweepProgram struct {
	label string
	cfg   *usecases.GwLB // nil for the L3 router
	table *mat.Table
	nf    *normalForm
	// stageMs holds, per stage, the milliseconds of each pass.
	stageMs map[string][]float64
}

func (sp *sweepProgram) ms(stage string) float64 { return median(sp.stageMs[stage]) }

// Labels of the sweep, as they appear in metric names.
const (
	sweep160 = "160"
	sweep2k  = "2k"
	sweep10k = "10k"
	sweepL3  = "l3"
)

// buildSweep generates the program set.
func buildSweep(sw sweepSizes, seed int64) (map[string]*sweepProgram, error) {
	out := map[string]*sweepProgram{}
	for label, sz := range map[string]size{sweep160: sw.Small, sweep2k: sw.Medium, sweep10k: sw.Large} {
		cfg, table, err := universalOf(sz, seed)
		if err != nil {
			return nil, err
		}
		out[label] = &sweepProgram{label: label, cfg: cfg, table: table}
	}
	out[sweepL3] = &sweepProgram{label: sweepL3, table: usecases.GenerateL3(sw.L3Prefixes, 64, 8, seed).Table}
	return out, nil
}

// sweepOrder fixes the order programs are traced in (and their unit ids).
var sweepOrder = []string{sweep160, sweep2k, sweep10k, sweepL3}

// runSweep runs the toolchain sweepPasses times on every program, one span
// per stage per pass, all passes of a program under one unit id.
func (p *probes) runSweep() error {
	var err error
	if p.sweep, err = buildSweep(p.e.sc.Sweep, p.e.seed); err != nil {
		return err
	}
	for unit, label := range sweepOrder {
		sp := p.sweep[label]
		sp.stageMs = map[string][]float64{}
		for pass := 0; pass < sweepPasses; pass++ {
			root := p.tr.begin("program_"+label, -1, unit)
			sp.nf, err = toNormalForm(sp.table, func(stage string, start, end time.Time) {
				p.tr.add(stage, root, unit, start, end)
				sp.stageMs[stage] = append(sp.stageMs[stage], float64(end.Sub(start).Nanoseconds())/1e6)
			})
			p.tr.end(root)
			if err != nil {
				return fmt.Errorf("toolchain on %s: %w", label, err)
			}
		}
		p.tr.count("toolchain.rules."+label, len(sp.table.Entries))
	}
	return nil
}

// fdLayer reports dependency mining at every size of the sweep, and the
// cover and key computation on the mined set of the 10k table.
func (p *probes) fdLayer() error {
	for _, label := range sweepOrder {
		p.rec.putTimed("fd.mine_ms_"+label, "ms", p.sweep[label].ms(stageMine), sweepPasses)
	}
	big := p.sweep[sweep10k]
	ns, n := perOpNs(p.b.probe, 1, func() {
		cover := fd.MinimalCover(big.nf.fds)
		sink += len(fd.CandidateKeys(len(big.table.Schema), cover))
	})
	p.rec.putTimed("fd.cover_us", "us", ns/1e3, n)
	return nil
}
