package main

import (
	"manorm/internal/controlplane"
	"manorm/internal/usecases"
)

// controlplaneLayer times the planner alone and counts what one intent
// costs on each representation — the paper's controllability claim: a
// port change rewrites M entries of the universal table and one entry of
// the normalized pipeline.
func (p *probes) controlplaneLayer() error {
	sz, seed, rec := p.e.sc.Update, p.e.seed, p.rec
	g := gateway(sz, seed)
	var firstErr error
	ns, n := perOpNs(p.b.probe, sz.Services, func() {
		for svc := 0; svc < sz.Services; svc++ {
			if _, err := controlplane.PlanPortChange(g, usecases.RepGoto, svc, 20000); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	rec.putTimed("controlplane.plan_us", "us", ns/1e3, n)

	modsGoto, err := modsPerIntent(sz, usecases.RepGoto, seed)
	if err != nil {
		return err
	}
	modsUniversal, err := modsPerIntent(sz, usecases.RepUniversal, seed)
	if err != nil {
		return err
	}
	rec.put("controlplane.mods_per_intent_goto", "count", float64(modsGoto))
	rec.put("controlplane.mods_per_intent_universal", "count", float64(modsUniversal))
	rec.tally.check(modsUniversal == sz.Backends*modsGoto,
		"flow-mods per intent: universal %d, goto %d; their ratio must be M = %d", modsUniversal, modsGoto, sz.Backends)
	return nil
}
