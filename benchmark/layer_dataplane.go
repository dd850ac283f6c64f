package main

import (
	"fmt"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
	"manorm/internal/usecases"
)

// explainFrames is how many frames the ProcessExplain probe replays; the
// witness path allocates per stage, so it gets a shorter replay.
const explainFrames = 1024

// compileOptions and newArena put the compiled pipeline and its ingest
// arena in the mode the scenario's schema needs — the same mode the switch
// models use for it, so the layer rows add up to the switch rows.
func (in *forwardInputs) compileOptions(extra ...dataplane.Option) []dataplane.Option {
	if in.schema == packet.SchemaDefault {
		return extra
	}
	return append([]dataplane.Option{dataplane.WithSchema(in.dec.Schema())}, extra...)
}

func (in *forwardInputs) newArena() *dataplane.FrameBatch {
	if in.schema == packet.SchemaDefault {
		return dataplane.NewFrameBatch(nil)
	}
	return dataplane.NewFrameBatch(in.dec)
}

// compilePipeline times dataplane.Compile (median of a few) and returns the
// last build.
func (in *forwardInputs) compilePipeline(p *mat.Pipeline, extra ...dataplane.Option) (*dataplane.Pipeline, float64, error) {
	var dp *dataplane.Pipeline
	var us []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := dataplane.Compile(p, dataplane.AutoTemplates, in.compileOptions(extra...)...)
		if err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		dp = c
	}
	return dp, median(us), nil
}

// framesPass forwards the frames through ProcessFrames in 64-frame batches.
func framesPass(dp *dataplane.Pipeline, arena *dataplane.FrameBatch, frames [][]byte, out []dataplane.Verdict) error {
	for pos := 0; pos < len(frames); pos += batchFrames {
		end := pos + batchFrames
		if end > len(frames) {
			end = len(frames)
		}
		if err := dp.ProcessFrames(frames[pos:end], arena, out[pos:end], nil); err != nil {
			return err
		}
	}
	return nil
}

// noDecodePass runs the pipeline on pre-decoded input: the fixed Packet
// form on the default schema (the form its frame path decodes into),
// FieldViews through ProcessView otherwise.
func noDecodePass(dp *dataplane.Pipeline, ctx *dataplane.Ctx, d *decodedTrace) error {
	if d.pkts != nil {
		for _, pkt := range d.pkts {
			if pkt == nil {
				continue
			}
			if _, err := dp.Process(pkt, ctx); err != nil {
				return err
			}
		}
		return nil
	}
	for _, v := range d.views {
		if v == nil {
			continue
		}
		if _, err := dp.ProcessView(v, ctx); err != nil {
			return err
		}
	}
	return nil
}

// dataplaneLayer times the compiled pipelines without any switch model:
// whole frames through ProcessFrames, the same pipelines on pre-decoded
// input, and what telemetry and the witness path add.
func (p *probes) dataplaneLayer() error {
	in, d, rec := p.e.forward.in, p.decoded, p.rec
	out := make([]dataplane.Verdict, len(d.frames))
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	compiled := map[usecases.Representation]*dataplane.Pipeline{}
	for _, rep := range forwardReps {
		dp, us, err := in.compilePipeline(in.pipes[rep])
		if err != nil {
			return err
		}
		compiled[rep] = dp
		if rep != usecases.RepUniversal {
			rec.put(fmt.Sprintf("dataplane.compile_%s_us", rep), "us", us)
		}
		arena := in.newArena()
		ns, n := perOpNs(p.b.probe, len(d.frames), func() { keep(framesPass(dp, arena, d.frames, out)) })
		rec.putTimed(fmt.Sprintf("dataplane.frames_%s_ns", rep), "ns", ns, n)
		if rep == usecases.RepGoto {
			p.framesGotoNs = ns
			rec.put("dataplane.allocs", "allocs/kframe",
				1000*mallocsPer(len(d.frames), func() { keep(framesPass(dp, arena, d.frames, out)) }))
			tables := 0
			for _, v := range out {
				tables += v.Tables
			}
			rec.put("dataplane.tables_per_pkt", "count", float64(tables)/float64(len(out)))
		}
	}

	for _, rep := range []usecases.Representation{usecases.RepGoto, usecases.RepFused} {
		dp := compiled[rep]
		ctx := dp.NewCtx()
		ns, n := perOpNs(p.b.probe, d.ok, func() { keep(noDecodePass(dp, ctx, d)) })
		rec.putTimed(fmt.Sprintf("dataplane.nodecode_%s_ns", rep), "ns", ns, n)
		if rep == usecases.RepGoto {
			path, _ := rec.value("classifier.path_goto_ns")
			rec.put("dataplane.self_goto_ns", "ns", ns-path)
		}
	}

	reg := telemetry.NewRegistry()
	dp, _, err := in.compilePipeline(in.pipes[usecases.RepGoto], dataplane.WithTelemetry(reg))
	if err != nil {
		return err
	}
	arena := in.newArena()
	ns, n := perOpNs(p.b.probe, len(d.frames), func() { keep(framesPass(dp, arena, d.frames, out)) })
	rec.putTimed("dataplane.telemetry_goto_ns", "ns", ns, n)

	gotoDP := compiled[usecases.RepGoto]
	ctx := gotoDP.NewCtx()
	p.gotoDP, p.gotoCtx = gotoDP, ctx
	nExplain := len(d.frames)
	if nExplain > explainFrames {
		nExplain = explainFrames
	}
	explained := 0
	ns, n = perOpNs(p.b.probe, nExplain, func() {
		explained = 0
		for i := 0; i < nExplain; i++ {
			var err error
			switch {
			case d.views[i] == nil:
				continue
			case d.pkts != nil:
				_, _, err = gotoDP.ProcessExplain(d.pkts[i], ctx)
			default:
				_, _, err = gotoDP.ProcessExplainView(d.views[i], ctx)
			}
			keep(err)
			explained++
		}
	})
	rec.putTimed("dataplane.explain_goto_ns", "ns", ns*float64(nExplain)/float64(explained), n)
	return firstErr
}
