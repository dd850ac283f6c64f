package difftest

import (
	"errors"
	"fmt"

	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/packet"
	"manorm/internal/switches"
)

// truth is the relational ground truth for one packet: the universal
// table's observable output.
type truth struct {
	obs  mat.Record
	drop bool
	port uint16
}

// Execute runs one program differentially: it enumerates every
// representation (core.Variants, plus the Fig. 3 pipeline for caveat
// programs), establishes ground truth by evaluating the universal table
// relationally on every packet, and then cross-checks
//
//   - every variant's relational evaluation, packet by packet, on the
//     indexed mat.Evaluator — itself cross-checked against the definition
//     (Pipeline.Eval) on every variant and packet;
//   - every variant against the universal table under the finite-domain
//     NetKAT oracle (exhaustively where the joint domain is small enough,
//     sampled otherwise);
//   - every variant compiled to the raw dataplane: verdicts, header
//     mutations, and the ProcessExplain witness's consistency;
//   - every variant installed on every switch model, batch-processed
//     twice so the second, cache-warm pass validates flow-cache replay.
//
// The compiled layers additionally run a fused twin of every fusable
// variant (the pipeline re-compiled through internal/fdd into a single
// first-match decision structure), so fusion is cross-checked against
// the same relational ground truth as the interpreted datapaths.
//
// The returned divergences are empty for a healthy program. An error
// means the harness itself could not run (nil table, unknown model) —
// never that the program diverged.
func Execute(p *Program, cfg ExecConfig) ([]Divergence, error) {
	if p == nil || p.Table == nil {
		return nil, errors.New("difftest: nil program")
	}
	if len(p.Batches) > 0 {
		return ExecuteConfluence(p, cfg)
	}
	cfg = cfg.withDefaults()
	var divs []Divergence
	full := func() bool { return len(divs) >= cfg.MaxDivergences }
	add := func(kind, variant, model string, pkt int, format string, args ...any) {
		if !full() {
			divs = append(divs, Divergence{
				Kind: kind, Variant: variant, Model: model, Packet: pkt,
				Detail: fmt.Sprintf(format, args...),
			})
		}
	}

	vs, err := core.Variants(p.Table, cfg.Target)
	if err != nil {
		add(KindConstruct, "variants", "", -1, "%v", err)
		return divs, nil
	}
	if p.Caveat {
		cp, err := CaveatPipeline(p.Table)
		if err != nil {
			add(KindConstruct, "fig3-caveat", "", -1, "%v", err)
			return divs, nil
		}
		vs = append(vs, core.Variant{Name: "fig3-caveat", Pipeline: cp})
	}
	// Fused twins: every variant re-entered through the FDD fusion path
	// (rep "fused"). Fusion is a compilation hint — the relational
	// semantics and the oracle ignore it — so the twins join only the
	// compiled layers below. Pipelines fusion declines (a matched field
	// whose written value analysis cannot track, stage cycles) are
	// skipped: ErrUnfusable is a stated capability limit, not a
	// divergence. Any other fusion failure is a construct divergence.
	compiled := vs
	for _, v := range vs {
		if _, err := fdd.Fuse(v.Pipeline); err != nil {
			if !fdd.IsUnfusable(err) {
				add(KindConstruct, v.Name+"+fused", "", -1, "fuse: %v", err)
			}
			continue
		}
		tw := *v.Pipeline
		tw.Name = v.Pipeline.Name + "+fused"
		tw.Fused = true
		compiled = append(compiled, core.Variant{Name: v.Name + "+fused", Pipeline: &tw})
	}

	uni := vs[0].Pipeline
	hasOut := p.Table.Schema.Index("out") >= 0

	// Inputs. In canonical mode the batch is p.Packets, marshaled once to
	// frames for the compiled layers. In schema mode the batch is raw
	// frames and the program's parse graph is compiled once; the record the
	// relational layers see is exactly the decoded FieldView — so a codec
	// or parser bug surfaces as a divergence between the relational and
	// compiled layers, which both consume the same bytes.
	n := p.NumInputs()
	recs := make([]mat.Record, n)
	var frames [][]byte
	var dec *packet.Decoder
	if p.SchemaMode() {
		dec, err = p.Graph.Compile()
		if err != nil {
			return nil, fmt.Errorf("difftest: compile parse graph: %w", err)
		}
		frames = p.Frames
		view := dec.NewView()
		for i, f := range frames {
			if err := dec.ParseInto(view, f); err != nil {
				return nil, fmt.Errorf("difftest: parse frame %d: %w", i, err)
			}
			recs[i] = view.Record()
		}
	} else {
		dec = packet.DefaultDecoder()
		frames = make([][]byte, n)
		for i, pkt := range p.Packets {
			recs[i] = pkt.Record()
			frames[i] = pkt.Marshal(nil)
		}
	}

	// Ground truth: the universal 1NF table under the relational
	// semantics. If even that is ambiguous the program itself is broken.
	expected := make([]truth, n)
	for i := range recs {
		out, err := uni.Eval(recs[i])
		if err != nil {
			add(KindEval, "universal", "", i, "%v", err)
			return divs, nil
		}
		expected[i] = truth{obs: out.Observable(), drop: out[mat.DropAttr] == 1, port: uint16(out["out"])}
	}

	// Relational cross-check of every other representation, run on the
	// indexed evaluator. The evaluator is first held to the definition
	// (Pipeline.Eval) on the same record — output and error — so a bug in
	// the index is reported as one (KindEvaluator) rather than as a bug in
	// the normalizer; and once more on the record with one match field
	// removed, an input no parsed packet is but the semantics define
	// (an absent attribute matches only a wildcard).
	fields := p.Table.Schema.Fields()
	for vi, v := range vs {
		ev := mat.NewEvaluator(v.Pipeline, mat.NewSlots())
		agrees := func(i int, in mat.Record) (mat.Record, error, bool) {
			out, err := ev.Eval(in)
			want, werr := v.Pipeline.Eval(in)
			if (err != nil) != (werr != nil) || (err == nil && !out.Equal(want)) {
				add(KindEvaluator, v.Name, "", i, "on %v: evaluator (%v, %v), definition (%v, %v)", in, out, err, want, werr)
				return nil, nil, false
			}
			return out, err, true
		}
		for i := range recs {
			out, err, ok := agrees(i, recs[i])
			if ok && len(fields) > 0 {
				short := recs[i].Clone()
				delete(short, p.Table.Schema[fields[i%len(fields)]].Name)
				_, _, ok = agrees(i, short)
			}
			if !ok {
				break
			}
			if vi == 0 {
				continue // the universal table is the ground truth itself
			}
			if err != nil {
				add(KindEval, v.Name, "", i, "%v", err)
				break
			}
			if !out.Observable().Equal(expected[i].obs) {
				add(KindRelational, v.Name, "", i, "got %v, want %v", out.Observable(), expected[i].obs)
				break
			}
		}
		if full() {
			return divs, nil
		}
	}

	// NetKAT oracle: exhaustive over the joint probe domain where widths
	// permit, sampled otherwise. This covers inputs the packet batch
	// missed.
	for _, v := range vs[1:] {
		limit := cfg.OracleSample
		if s := netkat.DomainOfPipelines(uni, v.Pipeline).Size(); s <= cfg.OracleExhaustive {
			limit = cfg.OracleExhaustive
		}
		if limit <= 0 {
			continue
		}
		cex, _, err := netkat.EquivalentPipelines(uni, v.Pipeline, limit)
		if err != nil {
			add(KindEval, v.Name, "", -1, "oracle probe: %v", err)
		} else if cex != nil {
			add(KindOracle, v.Name, "", -1, "%v", cex.Error())
		}
		if full() {
			return divs, nil
		}
	}

	// Raw dataplane: verdicts, witness consistency, header mutations.
	// Every executor reparses its own copy of the frame bytes, as a real
	// datapath would.
	binder := packet.NewBinder(dec.Schema())
	arena := dataplane.NewFrameBatch(dec)
	fout := make([]dataplane.Verdict, len(frames))
	for _, v := range compiled {
		dp, err := dataplane.Compile(v.Pipeline, dataplane.AutoTemplates, dataplane.WithSchema(dec.Schema()))
		if err != nil {
			add(KindConstruct, v.Name, "dataplane", -1, "compile: %v", err)
			continue
		}
		ctx := dp.NewCtx()
		view := dec.NewView()
		for i := range frames {
			if err := dec.ParseInto(view, frames[i]); err != nil {
				return nil, fmt.Errorf("difftest: reparse frame %d: %w", i, err)
			}
			verd, wit, err := dp.ProcessExplainView(view, ctx)
			if err != nil {
				add(KindEval, v.Name, "dataplane", i, "%v", err)
				break
			}
			exp := expected[i]
			if verd.Drop != exp.drop || (!exp.drop && hasOut && verd.Port != exp.port) {
				add(KindVerdict, v.Name, "dataplane", i,
					"verdict {drop:%v port:%d}, want {drop:%v port:%d}", verd.Drop, verd.Port, exp.drop, exp.port)
				break
			}
			if wit.Drop != verd.Drop || wit.Port != verd.Port ||
				wit.Tables != verd.Tables || len(wit.Stages) != verd.Tables {
				add(KindWitness, v.Name, "dataplane", i,
					"witness {drop:%v port:%d tables:%d stages:%d} inconsistent with verdict {drop:%v port:%d tables:%d}",
					wit.Drop, wit.Port, wit.Tables, len(wit.Stages), verd.Drop, verd.Port, verd.Tables)
				break
			}
			if !exp.drop {
				if d := checkMutations(binder, p.Table.Schema, exp.obs, recs[i], view); d != "" {
					add(KindMutation, v.Name, "dataplane", i, "%s", d)
					break
				}
			}
		}
		// Frame-batch ingest cross-check: the same frames through the
		// zero-copy wire surface must replay the per-frame verdicts.
		// (The switch-model pass below already IS the frames path per
		// model; this pins the raw ProcessFrames entry point itself.)
		if err := dp.ProcessFrames(frames, arena, fout, nil); err != nil {
			add(KindEval, v.Name, "dataplane-frames", -1, "%v", err)
		} else {
			for i := range frames {
				exp := expected[i]
				if fout[i].Drop != exp.drop || (!exp.drop && hasOut && fout[i].Port != exp.port) {
					add(KindVerdict, v.Name, "dataplane-frames", i,
						"frames-path verdict {drop:%v port:%d}, want {drop:%v port:%d}",
						fout[i].Drop, fout[i].Port, exp.drop, exp.port)
					break
				}
			}
		}
		if full() {
			return divs, nil
		}
	}

	// Switch models: install every variant, process the batch cold, then
	// again warm — the second pass runs out of the models' flow caches
	// and must replay identical verdicts.
	out1 := make([]dataplane.Verdict, len(frames))
	out2 := make([]dataplane.Verdict, len(frames))
	for _, model := range cfg.Models {
		sw, err := switches.New(model, switches.WithSchema(dec))
		if err != nil {
			return nil, err
		}
		for _, v := range compiled {
			if err := sw.Install(v.Pipeline); err != nil {
				add(KindConstruct, v.Name, model, -1, "install: %v", err)
				continue
			}
			w := sw.NewWorker()
			if err := w.ProcessBatch(frames, out1); err != nil {
				add(KindEval, v.Name, model, -1, "cold batch: %v", err)
				continue
			}
			if err := w.ProcessBatch(frames, out2); err != nil {
				add(KindEval, v.Name, model, -1, "warm batch: %v", err)
				continue
			}
			for i := range frames {
				exp := expected[i]
				if out1[i].Drop != exp.drop || (!exp.drop && hasOut && out1[i].Port != exp.port) {
					add(KindVerdict, v.Name, model, i,
						"verdict {drop:%v port:%d}, want {drop:%v port:%d}", out1[i].Drop, out1[i].Port, exp.drop, exp.port)
					break
				}
				if out1[i].Drop != out2[i].Drop || out1[i].Port != out2[i].Port {
					add(KindCache, v.Name, model, i,
						"cold {drop:%v port:%d} vs warm {drop:%v port:%d}", out1[i].Drop, out1[i].Port, out2[i].Drop, out2[i].Port)
					break
				}
			}
			if full() {
				return divs, nil
			}
		}
	}
	return divs, nil
}

// checkMutations compares the dataplane's final header fields against the
// relational record: every rewriting action attribute that writes a field
// of the view's schema (packet.Binder.ActionSlot — the legacy aliases
// mod_smac/mod_dmac/mod_vlan and the generic mod_<field>) must leave that
// field equal to the value the relational semantics assigned, or to its
// originally parsed value when the relational run never wrote it. It
// returns a description of the first mismatch, or "".
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
