package main

import (
	"manorm/internal/controlplane"
	"manorm/internal/fabric"
	"manorm/internal/openflow"
	"manorm/internal/usecases"
)

// fabricLayer times the fabric's pure functions only — the syntactic
// commutation check and placement. A multi-member fabric needs more
// connections than this host has cores.
func (p *probes) fabricLayer() error {
	cfg := p.sweep[sweep2k].cfg
	var plans [][]openflow.FlowMod
	for svc := 0; svc < 8; svc++ {
		plan, err := controlplane.PlanPortChange(cfg, usecases.RepUniversal, svc, uint16(40000+svc))
		if err != nil {
			return err
		}
		plans = append(plans, plan.Mods)
	}
	pairs := 0
	ns, n := perOpNs(p.b.probe, 1, func() {
		pairs = 0
		for i := range plans[0] {
			for j := range plans[1] {
				if fabric.Commutes(&plans[0][i], &plans[1][j]) {
					sink++
				}
				pairs++
			}
		}
	})
	p.rec.putTimed("fabric.commutes_ns", "ns", ns/float64(pairs), n*pairs)

	ns, n = perOpNs(p.b.probe, len(plans)-1, func() {
		for i := 1; i < len(plans); i++ {
			sink += len(fabric.BatchConflicts(plans[0], plans[i]))
		}
	})
	p.rec.putTimed("fabric.batch_conflicts_us", "us", ns/1e3, n)

	gotoP, err := cfg.Build(usecases.RepGoto)
	if err != nil {
		return err
	}
	var firstErr error
	ns, n = perOpNs(p.b.probe, 1, func() {
		if _, err := fabric.Place(gotoP, 4, fabric.Partition); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	p.rec.putTimed("fabric.place_ms_2k", "ms", ns/1e6, n)
	return firstErr
}
