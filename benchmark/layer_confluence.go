package main

import (
	"time"

	"manorm/internal/confluence"
	"manorm/internal/usecases"
)

// confluenceLayer reports the canonical-form machinery the verifier runs
// once per interleaving — Fingerprint at three sizes and CanonicalState —
// and the verifier itself on the case list against the 2 000-rule base.
func (p *probes) confluenceLayer() error {
	rec := p.rec
	for unit, label := range sweepOrder {
		sp := p.sweep[label]
		if sp.cfg == nil {
			continue
		}
		gotoP, err := sp.cfg.Build(usecases.RepGoto)
		if err != nil {
			return err
		}
		c, err := passCell("confluence.fingerprint_ms_"+label, "ms", p.b.probe, 1, time.Millisecond, func() error {
			t0 := time.Now()
			_, err := confluence.Fingerprint(gotoP)
			p.tr.add("confluence.fingerprint", -1, unit, t0, time.Now())
			return err
		})
		if err != nil {
			return err
		}
		rec.cell(c)
		if label == sweep2k {
			var firstErr error
			ns, n := perOpNs(p.b.probe, 1, func() {
				if _, err := confluence.CanonicalState(gotoP); err != nil && firstErr == nil {
					firstErr = err
				}
			})
			if firstErr != nil {
				return firstErr
			}
			rec.putTimed("confluence.canonical_state_ms_2k", "ms", ns/1e6, n)
		}
	}

	cases, err := confluenceCases(p.sweep[sweep2k].cfg, p.e.seed)
	if err != nil {
		return err
	}
	orderings := 0
	t0 := time.Now()
	for unit, c := range cases {
		id := p.tr.begin("confluence.check", -1, unit)
		v, err := checkCase(c, &rec.tally)
		p.tr.end(id)
		if err != nil {
			return err
		}
		orderings += v.Orderings
	}
	rec.putTimed("confluence.check_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6/float64(len(cases)), len(cases))
	rec.put("confluence.orderings", "count", float64(orderings))
	p.tr.count("confluence.check.orderings", orderings)
	return nil
}
