package difftest

import (
	"fmt"
	"slices"

	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/packet"
	"manorm/internal/switches"
)

// truth is the universal table's observable output on one input.
type truth struct {
	obs  mat.Record
	drop bool
	port uint16
}

// install is a switch model, a worker on it, and the variant installed.
type install struct {
	sw switches.Switch
	w  switches.Worker
	on string
}

// preparePackets marshals a Programs batch once for the compiled layers;
// the relational layers read the packets' records.
func preparePackets(c *Case) error {
	c.dec = packet.DefaultDecoder()
	for _, pk := range c.Packets {
		c.recs = append(c.recs, pk.Record())
		c.frames = append(c.frames, pk.Marshal(nil))
	}
	c.prepare()
	return nil
}

// prepareFrames compiles a Schemas program's parse graph once; the
// relational layers read the decoded FieldView, so a parser bug surfaces
// between them and the compiled layers, which consume the same bytes.
func prepareFrames(c *Case) error {
	dec, err := c.Graph.Compile()
	if err != nil {
		return fmt.Errorf("difftest: compile parse graph: %w", err)
	}
	c.dec, c.frames = dec, c.Frames
	view := dec.NewView()
	for i, f := range c.frames {
		if err := dec.ParseInto(view, f); err != nil {
			return fmt.Errorf("difftest: parse frame %d: %w", i, err)
		}
		c.recs = append(c.recs, view.Record())
	}
	c.prepare()
	return nil
}

// prepare enumerates the representations (core.Variants, plus the Fig. 3
// pipeline for caveat programs) and evaluates the universal table on
// every input: the ground truth.
func (c *Case) prepare() {
	c.tally["packets"] += len(c.frames)
	c.dps, c.sws = make(map[string]*dataplane.Pipeline), make(map[string]*install)
	vs, err := core.Variants(c.Table, core.NF3)
	if err == nil && c.Caveat {
		var cp *mat.Pipeline
		cp, err = CaveatPipeline(c.Table)
		vs = append(vs, core.Variant{Name: "fig3-caveat", Pipeline: cp})
	}
	if err != nil {
		c.construct("variants", "", "%v", err)
		return
	}
	c.vs = vs
	for i, rec := range c.recs {
		out, err := vs[0].Pipeline.Eval(rec)
		if err != nil {
			c.truthErr = &Divergence{Kind: KindEval, Variant: "universal", Packet: i, Detail: err.Error()}
			return
		}
		c.truth = append(c.truth, truth{obs: out.Observable(), drop: out[mat.DropAttr] == 1, port: uint16(out["out"])})
	}
}

func (c *Case) construct(variant, model, format string, args ...any) {
	c.built = append(c.built, Divergence{Kind: KindConstruct, Variant: variant, Model: model, Packet: -1, Detail: fmt.Sprintf(format, args...)})
}

// compiled returns the representations the compiled layers run: every
// variant, then its fused twin — re-entered through the FDD fusion path,
// a compilation hint the relational layers ignore. A pipeline fusion
// declines (fdd.ErrUnfusable, a stated capability limit) has no twin.
func (c *Case) compiled() []core.Variant {
	if c.twins != nil {
		return c.comp
	}
	c.comp, c.twins = slices.Clip(c.vs), make(map[string]core.Variant)
	for _, v := range c.vs {
		tw := *v.Pipeline
		tw.Name, tw.Fused = v.Pipeline.Name+"+fused", true
		twin := core.Variant{Name: v.Name + "+fused", Pipeline: &tw}
		if c.dataplane(twin) != nil {
			c.twins[v.Name] = twin
			c.comp = append(c.comp, twin)
		}
	}
	return c.comp
}

// dataplane returns v compiled to the raw dataplane, or nil when it does
// not compile.
func (c *Case) dataplane(v core.Variant) *dataplane.Pipeline {
	dp, ok := c.dps[v.Name]
	if !ok {
		var err error
		dp, err = dataplane.Compile(v.Pipeline, dataplane.AutoTemplates, dataplane.WithSchema(c.dec.Schema()))
		if err != nil && !fdd.IsUnfusable(err) {
			c.construct(v.Name, "dataplane", "compile: %v", err)
		}
		c.dps[v.Name] = dp
	}
	return dp
}

// installed returns the install of v on a model, or nil when it fails.
// A case keeps one switch and worker per model, reinstalled whenever the
// variant changes.
func (c *Case) installed(model string, v core.Variant) (*install, error) {
	in := c.sws[model]
	if in == nil {
		sw, err := switches.New(model, switches.WithSchema(c.dec))
		if err != nil {
			return nil, err
		}
		in = &install{sw: sw, w: sw.NewWorker()}
		c.sws[model] = in
	}
	if in.on != v.Name {
		if err := in.sw.Install(v.Pipeline); err != nil {
			c.construct(v.Name, model, "install: %v", err)
			in.on = ""
			return nil, nil
		}
		in.on = v.Name
	}
	return in, nil
}

func (c *Case) processFrames(dp *dataplane.Pipeline, out []dataplane.Verdict) error {
	if c.arena == nil {
		c.arena = dataplane.NewFrameBatch(c.dec)
	}
	return dp.ProcessFrames(c.frames, c.arena, out, nil)
}

// checkRelational runs every representation on the indexed evaluator,
// held first to the definition (Pipeline.Eval) — output and error — so an
// index bug is reported as one (KindEvaluator), also on the record with
// one match field removed (an absent attribute matches only a wildcard).
func checkRelational(c *Case) ([]Divergence, error) {
	if c.truthErr != nil {
		return []Divergence{*c.truthErr}, nil
	}
	var r report
	fields := c.Table.Schema.Fields()
	for vi, v := range c.vs {
		ev := mat.NewEvaluator(v.Pipeline, mat.NewSlots())
		agrees := func(i int, in mat.Record) (mat.Record, error, bool) {
			out, err := ev.Eval(in)
			want, werr := v.Pipeline.Eval(in)
			if (err != nil) != (werr != nil) || (err == nil && !out.Equal(want)) {
				r.add(KindEvaluator, v.Name, "", i, "on %v: evaluator (%v, %v), definition (%v, %v)", in, out, err, want, werr)
				return nil, nil, false
			}
			return out, err, true
		}
		for i := range c.recs {
			out, err, ok := agrees(i, c.recs[i])
			if ok && len(fields) > 0 {
				short := c.recs[i].Clone()
				delete(short, c.Table.Schema[fields[i%len(fields)]].Name)
				_, _, ok = agrees(i, short)
			}
			if !ok {
				break
			}
			if vi == 0 {
				continue // the universal table is the ground truth itself
			}
			if err != nil {
				r.add(KindEval, v.Name, "", i, "%v", err)
				break
			}
			if !out.Observable().Equal(c.truth[i].obs) {
				r.add(KindRelational, v.Name, "", i, "got %v, want %v", out.Observable(), c.truth[i].obs)
				break
			}
		}
		if r.full() {
			break
		}
	}
	return r, nil
}

// checkOracle compares every representation with the universal table on
// the NetKAT oracle, which covers inputs the packet batch missed.
func checkOracle(c *Case) ([]Divergence, error) {
	if c.vs == nil || c.truthErr != nil {
		return nil, nil // nothing to compare
	}
	var r report
	uni := c.vs[0].Pipeline
	for _, v := range c.vs[1:] {
		limit := c.cfg.OracleSample
		if s := netkat.DomainOfPipelines(uni, v.Pipeline).Size(); s <= c.cfg.OracleExhaustive {
			limit = c.cfg.OracleExhaustive
		}
		if limit <= 0 {
			continue
		}
		cex, _, err := netkat.EquivalentPipelines(uni, v.Pipeline, limit)
		if err != nil {
			r.add(KindOracle, v.Name, "", -1, "probe: %v", err)
		} else if cex != nil {
			r.add(KindOracle, v.Name, "", -1, "%v", cex.Error())
		}
		if r.full() {
			break
		}
	}
	return r, nil
}

// checkForwarding runs every compiled representation on the raw
// dataplane — verdicts, witness consistency, header mutations, and the
// frame-ingest entry point — and on every switch model, cold and again
// warm: the second pass runs out of the models' flow caches and must
// replay identical verdicts.
func checkForwarding(c *Case) ([]Divergence, error) {
	if c.truthErr != nil {
		return nil, nil
	}
	var r report
	hasOut := c.Table.Schema.Index("out") >= 0
	binder := packet.NewBinder(c.dec.Schema())
	// wrong reports a verdict that is not the ground truth's.
	wrong := func(v core.Variant, model string, i int, got dataplane.Verdict) bool {
		exp := c.truth[i]
		if got.Drop == exp.drop && (exp.drop || !hasOut || got.Port == exp.port) {
			return false
		}
		r.add(KindVerdict, v.Name, model, i, "verdict {drop:%v port:%d}, want {drop:%v port:%d}", got.Drop, got.Port, exp.drop, exp.port)
		return true
	}
	fout := make([]dataplane.Verdict, len(c.frames))
	for _, v := range c.compiled() {
		dp := c.dataplane(v)
		if dp == nil {
			continue
		}
		ctx, view := dp.NewCtx(), c.dec.NewView()
		for i, exp := range c.truth {
			if err := c.dec.ParseInto(view, c.frames[i]); err != nil {
				return nil, fmt.Errorf("reparse frame %d: %w", i, err)
			}
			verd, wit, err := dp.ProcessExplainView(view, ctx)
			if err != nil {
				r.add(KindVerdict, v.Name, "dataplane", i, "%v", err)
				break
			}
			if wrong(v, "dataplane", i, verd) {
				break
			}
			if wit.Drop != verd.Drop || wit.Port != verd.Port ||
				wit.Tables != verd.Tables || len(wit.Stages) != verd.Tables {
				r.add(KindWitness, v.Name, "dataplane", i,
					"witness {drop:%v port:%d tables:%d stages:%d} inconsistent with verdict {drop:%v port:%d tables:%d}",
					wit.Drop, wit.Port, wit.Tables, len(wit.Stages), verd.Drop, verd.Port, verd.Tables)
				break
			}
			if !exp.drop {
				if d := checkMutations(binder, c.Table.Schema, exp.obs, c.recs[i], view); d != "" {
					r.add(KindMutation, v.Name, "dataplane", i, "%s", d)
					break
				}
			}
		}
		// The same frames through the zero-copy wire surface must replay
		// the per-frame verdicts. (The switch-model pass below already IS
		// the frames path per model; this pins the raw ProcessFrames entry
		// point itself.)
		if err := c.processFrames(dp, fout); err != nil {
			r.add(KindVerdict, v.Name, "dataplane-frames", -1, "%v", err)
		} else {
			for i := range c.truth {
				if wrong(v, "dataplane-frames", i, fout[i]) {
					break
				}
			}
		}
		if r.full() {
			return r, nil
		}
	}

	out1 := make([]dataplane.Verdict, len(c.frames))
	out2 := make([]dataplane.Verdict, len(c.frames))
	for _, model := range c.cfg.Models {
		for _, v := range c.comp {
			in, err := c.installed(model, v)
			if err != nil {
				return nil, err
			}
			if in == nil {
				continue
			}
			if err := in.w.ProcessBatch(c.frames, out1); err != nil {
				r.add(KindVerdict, v.Name, model, -1, "cold batch: %v", err)
				continue
			}
			if err := in.w.ProcessBatch(c.frames, out2); err != nil {
				r.add(KindCache, v.Name, model, -1, "warm batch: %v", err)
				continue
			}
			for i := range c.truth {
				if wrong(v, model, i, out1[i]) {
					break
				}
				if out1[i].Drop != out2[i].Drop || out1[i].Port != out2[i].Port {
					r.add(KindCache, v.Name, model, i,
						"cold {drop:%v port:%d} vs warm {drop:%v port:%d}", out1[i].Drop, out1[i].Port, out2[i].Drop, out2[i].Port)
					break
				}
			}
			if r.full() {
				return r, nil
			}
		}
	}
	return append(c.built, r...), nil
}

// checkMutations describes the first rewriting action (packet.Binder.
// ActionSlot: mod_smac/mod_dmac/mod_vlan and the generic mod_<field>)
// whose field the dataplane left other than the relational semantics
// assigned — or than parsed, where it assigned nothing — or returns "".
func checkMutations(b *packet.Binder, sch mat.Schema, obs mat.Record, orig mat.Record, got *packet.FieldView) string {
	for _, ai := range sch.Actions() {
		name := sch[ai].Name
		slot := b.ActionSlot(name)
		if slot < 0 {
			continue
		}
		fld := got.Schema().SlotName(slot)
		want, wrote := obs[name]
		if !wrote {
			want = orig[fld]
		}
		have, _ := got.Get(slot)
		if have != want {
			return fmt.Sprintf("%s: field %s = %#x, want %#x", name, fld, have, want)
		}
	}
	return ""
}

// counted is a raw dataplane or switch model's per-entry counters.
type counted interface{ Counters(stage int) []uint64 }

// checkCounters runs the batch through each variant and then its fused
// twin and compares, stage by stage, how much each per-entry counter grew.
func checkCounters(c *Case) ([]Divergence, error) {
	if c.vs == nil || c.truthErr != nil {
		return nil, nil // nothing to compare
	}
	var r report
	c.compiled()
	out := make([]dataplane.Verdict, len(c.frames))
	// side is v on the raw dataplane or installed on a model (nil when it
	// does not build) and one run of the batch through it.
	side := func(model string, v core.Variant) (counted, func() error, error) {
		if model == "dataplane" {
			dp := c.dataplane(v)
			if dp == nil {
				return nil, nil, nil
			}
			return dp, func() error { return c.processFrames(dp, out) }, nil
		}
		in, err := c.installed(model, v)
		if in == nil {
			return nil, nil, err
		}
		return in.sw, func() error { return in.w.ProcessBatch(c.frames, out) }, nil
	}
	for _, v := range c.vs {
		tw, ok := c.twins[v.Name]
		if !ok {
			continue
		}
		for _, model := range append([]string{"dataplane"}, c.cfg.Models...) {
			if model == "ovs" {
				continue
			}
			var grew [2][][]uint64
			for k, x := range []core.Variant{v, tw} {
				ct, run, err := side(model, x)
				if err != nil {
					return nil, err
				}
				if ct == nil {
					break
				}
				if grew[k], err = growth(ct, len(v.Pipeline.Stages), run); err != nil {
					r.add(KindCounters, x.Name, model, -1, "%v", err)
					break
				}
			}
			for s := range grew[1] {
				if !slices.Equal(grew[1][s], grew[0][s]) {
					r.add(KindCounters, tw.Name, model, -1, "stage %d counters grew %v, interpreted %v", s, grew[1][s], grew[0][s])
					break
				}
			}
		}
		if r.full() {
			break
		}
	}
	return r, nil
}

// growth runs the batch once through x and returns how much each
// logical stage's per-entry counters grew; a read that panics is an
// error too.
func growth(x counted, stages int, run func() error) (d [][]uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("counter read panicked: %v", p)
		}
	}()
	for s := 0; s < stages; s++ {
		d = append(d, x.Counters(s))
	}
	if err := run(); err != nil {
		return nil, err
	}
	for s := range d {
		for i, n := range x.Counters(s) {
			d[s][i] = n - d[s][i]
		}
	}
	return d, nil
}
