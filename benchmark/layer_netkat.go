package main

import (
	"fmt"
	"time"

	"manorm/internal/mat"
	"manorm/internal/netkat"
)

// evalRecords is how many probe records mat.eval_ns evaluates per pass.
const evalRecords = 2048

// netkatLayer reports the finite-domain equivalence checker on the 160-
// and 2 000-rule programs, and the relational oracle it (and every other
// checker) evaluates record by record.
func (p *probes) netkatLayer() error {
	rec := p.rec
	for unit, label := range sweepOrder {
		if label != sweep160 && label != sweep2k {
			continue
		}
		sp := p.sweep[label]
		universal := mat.SingleTable(sp.table)
		t0 := time.Now()
		cex, _, err := netkat.EquivalentPipelines(universal, sp.nf.result.Pipeline, 0)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("equivalence at %s: %w", label, err)
		}
		p.tr.add("netkat.equiv", -1, unit, t0, t1)
		rec.tally.check(cex == nil, "normal form of the %s-rule table is not equivalent to it: %v", label, cex)
		rec.putTimed("netkat.equiv_ms_"+label, "ms", float64(t1.Sub(t0).Nanoseconds())/1e6, 1)
		if label == sweep2k {
			records := netkat.DomainOfPipelines(universal, sp.nf.result.Pipeline).Size()
			if records > netkat.DefaultProbeLimit {
				records = netkat.DefaultProbeLimit
			}
			rec.put("netkat.equiv_records_2k", "count", float64(records))
			p.tr.count("netkat.equiv.records", records)
		}
	}

	sp := p.sweep[sweep2k]
	oracle := mat.SingleTable(sp.table)
	var records []mat.Record
	if _, err := netkat.DomainOf(sp.table).Each(evalRecords, func(r mat.Record) error {
		records = append(records, r.Clone())
		return nil
	}); err != nil {
		return err
	}
	var firstErr error
	ns, n := perOpNs(p.b.probe, len(records), func() {
		for _, r := range records {
			if _, err := oracle.Eval(r); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	rec.putTimed("mat.eval_ns", "ns", ns, n)
	return firstErr
}
