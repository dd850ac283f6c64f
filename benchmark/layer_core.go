package main

import (
	"time"

	"manorm/internal/core"
)

// coreLayer reports normal-form synthesis at every size of the sweep, the
// conversions around it, and the shape of the 10k result.
func (p *probes) coreLayer() error {
	rec := p.rec
	for _, label := range sweepOrder {
		rec.putTimed("core.normalize_ms_"+label, "ms", p.sweep[label].ms(stageNormalize), sweepPasses)
	}
	big := p.sweep[sweep10k]
	rec.putTimed("core.togoto_ms_10k", "ms", big.ms(stageToGoto), sweepPasses)

	for unit, label := range sweepOrder {
		if label != sweep2k && label != sweep10k {
			continue
		}
		sp := p.sweep[label]
		// One pass at 10k rules takes over a second; it gets the one.
		c, err := passCell("core.denormalize_ms_"+label, "ms", p.b.probe, 1, time.Millisecond, func() error {
			t0 := time.Now()
			back, err := core.Denormalize(sp.nf.result.Pipeline)
			if err != nil {
				return err
			}
			p.tr.add("core.denormalize", -1, unit, t0, time.Now())
			rec.tally.check(sameRows(back, sp.table), "Denormalize(Normalize(T)) differs from T at %s rules", label)
			return nil
		})
		if err != nil {
			return err
		}
		rec.cell(c)
	}

	normalized := big.nf.result.Pipeline
	rec.put("core.stages_10k", "count", float64(normalized.Depth()))
	rec.put("core.entries_10k", "count", float64(normalized.EntryCount()))
	rec.put("core.fields_ratio_10k", "ratio", float64(big.nf.gotoP.FieldCount())/float64(big.table.FieldCount()))
	rec.put("core.steps_10k", "count", float64(len(big.nf.result.Steps)))
	return nil
}
