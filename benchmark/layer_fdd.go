package main

// fddLayer reports pipeline fusion at every size of the sweep.
func (p *probes) fddLayer() error {
	for _, label := range sweepOrder {
		p.rec.putTimed("fdd.fuse_ms_"+label, "ms", p.sweep[label].ms(stageFuse), sweepPasses)
	}
	p.rec.put("fdd.rules_10k", "count", float64(len(p.sweep[sweep10k].nf.fused.Rules)))
	return nil
}
