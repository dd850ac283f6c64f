package main

import (
	"fmt"
	"time"

	"manorm/internal/classifier"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// sink keeps lookup results alive so the compiler cannot drop the calls.
var sink int

// tableKeys extracts, for every frame, the lookup key of a table: one
// value per match column, in column order. A frame that did not decode has
// a nil key, so keys stay index-aligned with the trace.
func tableKeys(t *mat.Table, views []*packet.FieldView) [][]uint64 {
	fields := t.Schema.Fields()
	keys := make([][]uint64, len(views))
	for vi, v := range views {
		if v == nil {
			continue
		}
		k := make([]uint64, len(fields))
		for i, fi := range fields {
			k[i], _ = v.GetName(t.Schema[fi].Name)
		}
		keys[vi] = k
	}
	return keys
}

// lookupAll looks every non-nil key up.
func lookupAll(cls classifier.Classifier, keys [][]uint64) {
	for _, k := range keys {
		if k != nil {
			sink += cls.Lookup(k)
		}
	}
}

// countKeys counts the non-nil keys.
func countKeys(keys [][]uint64) int {
	n := 0
	for _, k := range keys {
		if k != nil {
			n++
		}
	}
	return n
}

// buildClassifier times the construction of one template over a table
// (median of a few builds) and returns the last build.
func buildClassifier(t *mat.Table, tmpl classifier.Template) (classifier.Classifier, float64, error) {
	var cls classifier.Classifier
	var us []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := classifier.Compile(t, tmpl)
		if err != nil {
			return nil, 0, fmt.Errorf("classifier %s on %s: %w", tmpl, t.Name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		cls = c
	}
	return cls, median(us), nil
}

// gotoPath is the classifier work of the goto pipeline, replayed from
// outside: every frame looks up stage 0 and, on a hit, the backend stage
// its entry jumps to. All slices are index-aligned with the trace.
type gotoPath struct {
	stage0   classifier.Classifier
	keys0    [][]uint64
	backends []classifier.Classifier // indexed by stage; nil for stage 0
	// stage1/keys1 are the backend stage and key of each frame that hit
	// stage 0 (stage 0 and a nil key otherwise).
	stage1 []int
	keys1  [][]uint64
}

// newGotoPath compiles the goto pipeline's stages with the given templates
// and routes every decoded frame through stage 0.
func newGotoPath(p *mat.Pipeline, views []*packet.FieldView, first, backend classifier.Template) (*gotoPath, error) {
	t0 := p.Stages[0].Table
	gp := &gotoPath{
		keys0:    tableKeys(t0, views),
		backends: make([]classifier.Classifier, len(p.Stages)),
		stage1:   make([]int, len(views)),
		keys1:    make([][]uint64, len(views)),
	}
	var err error
	if gp.stage0, err = classifier.Compile(t0, first); err != nil {
		return nil, err
	}
	for si := 1; si < len(p.Stages); si++ {
		if gp.backends[si], err = classifier.Compile(p.Stages[si].Table, backend); err != nil {
			return nil, err
		}
	}
	gotoCol := t0.Schema.Index(mat.GotoAttr)
	for i, k := range gp.keys0 {
		if k == nil {
			continue
		}
		if ei := gp.stage0.Lookup(k); ei >= 0 {
			si := int(t0.Entries[ei][gotoCol].Bits)
			gp.stage1[i] = si
			gp.keys1[i] = tableKeys(p.Stages[si].Table, views[i:i+1])[0]
		}
	}
	return gp, nil
}

// lookups0 and lookups1 replay the stage-0 and the backend lookups of the
// frames in [lo, hi).
func (gp *gotoPath) lookups0(lo, hi int) { lookupAll(gp.stage0, gp.keys0[lo:hi]) }

func (gp *gotoPath) lookups1(lo, hi int) {
	for i := lo; i < hi; i++ {
		if k := gp.keys1[i]; k != nil {
			sink += gp.backends[gp.stage1[i]].Lookup(k)
		}
	}
}

// classifierLayer times every classifier template on the workload's own
// tables with keys pre-extracted from the trace: exact on goto stage 0,
// LPM on the goto backend stages, ternary and tuple-space search on the
// universal table, and the FDD on the fused rule list.
func (p *probes) classifierLayer() error {
	in, views := p.e.forward.in, p.decoded.views
	gotoP := in.pipes[usecases.RepGoto]
	rec := p.rec

	gp, err := newGotoPath(gotoP, views, classifier.ForceExact, classifier.ForceLPM)
	if err != nil {
		return err
	}
	_, us, err := buildClassifier(gotoP.Stages[0].Table, classifier.ForceExact)
	if err != nil {
		return err
	}
	rec.put("classifier.build_exact_us", "us", us)
	if _, us, err = buildClassifier(gotoP.Stages[1].Table, classifier.ForceLPM); err != nil {
		return err
	}
	rec.put("classifier.build_lpm_us", "us", us)
	all := len(views)
	ns, n := perOpNs(p.b.probe, countKeys(gp.keys0), func() { gp.lookups0(0, all) })
	rec.putTimed("classifier.exact_ns", "ns", ns, n)
	ns, n = perOpNs(p.b.probe, countKeys(gp.keys1), func() { gp.lookups1(0, all) })
	rec.putTimed("classifier.lpm_ns", "ns", ns, n)

	prog, err := fdd.Fuse(gotoP)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		table *mat.Table
		tmpl  classifier.Template
	}{
		{"ternary", in.universal, classifier.ForceTernary},
		{"tss", in.universal, classifier.ForceTupleSpace},
		{"fdd", prog.MatchTable(), classifier.ForceFDD},
	} {
		cls, us, err := buildClassifier(c.table, c.tmpl)
		if err != nil {
			return err
		}
		rec.put("classifier.build_"+c.name+"_us", "us", us)
		keys := tableKeys(c.table, views)
		ns, n := perOpNs(p.b.probe, countKeys(keys), func() { lookupAll(cls, keys) })
		rec.putTimed("classifier."+c.name+"_ns", "ns", ns, n)
		if f, ok := cls.(*classifier.FDD); ok {
			rec.put("classifier.fdd_nodes", "count", float64(f.Nodes()))
			rec.put("classifier.fdd_depth", "count", float64(f.DecisionDepth()))
		}
	}

	// The lookups the goto pipeline performs per packet, with the templates
	// ESwitch picks for these tables: what dataplane.self_goto_ns subtracts.
	auto, err := newGotoPath(gotoP, views, classifier.Auto, classifier.Auto)
	if err != nil {
		return err
	}
	ns, n = perOpNs(p.b.probe, countKeys(auto.keys0), func() { auto.lookups0(0, all); auto.lookups1(0, all) })
	rec.putTimed("classifier.path_goto_ns", "ns", ns, n)
	p.tr.count("classifier.lookup.stage0", countKeys(auto.keys0))
	p.tr.count("classifier.lookup.stage1", countKeys(auto.keys1))
	p.autoPath = auto
	return nil
}
