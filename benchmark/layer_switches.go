package main

import (
	"fmt"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/usecases"
)

// perLayerCells are the model × representation cells not promoted to
// end-to-end metrics. Each is the measured time of a Worker, never a
// model's analytic line-rate constant.
var perLayerCells = []forwardCell{
	{"switches.ovs_universal_ns", "ovs", usecases.RepUniversal},
	{"switches.ovs_fused_ns", "ovs", usecases.RepFused},
	{"switches.lagopus_universal_ns", "lagopus", usecases.RepUniversal},
	{"switches.lagopus_fused_ns", "lagopus", usecases.RepFused},
	{"switches.noviflow_goto_ns", "noviflow", usecases.RepGoto},
}

// coldPassFrames bounds the first pass after Install that ovs_cold_ns
// times.
const coldPassFrames = 16384

// nsPerFrame runs a lane's throughput cell and converts Mpps to ns/frame.
func nsPerFrame(l *lane, d time.Duration) (float64, int, error) {
	c, err := l.rate(d)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", l.cell.Metric, err)
	}
	return 1e3 / c.Value, c.Samples, nil
}

// installTime times Install of a representation on a fresh model (median
// of a few), in microseconds.
func (in *forwardInputs) installTime(model string, p *mat.Pipeline) (float64, error) {
	var us []float64
	for i := 0; i < 3; i++ {
		sw, err := switches.New(model, in.switchOptions()...)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := sw.Install(p); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// switchesLayer measures what the switch models add around the compiled
// pipelines: the remaining cells of the matrix, ESwitch's overhead over
// the bare pipeline, how OVS's cache tiers split the traffic, and what an
// Install costs — the cost every control-plane update re-imposes.
func (p *probes) switchesLayer() error {
	fp, in, rec := p.e.forward, p.e.forward.in, p.rec
	cellTime := 2 * p.b.probe

	for _, c := range perLayerCells {
		l, err := in.newLane(c)
		if err != nil {
			return err
		}
		ns, n, err := nsPerFrame(l, cellTime)
		if err != nil {
			return err
		}
		rec.putTimed(c.Metric, "ns", ns, n)
		if err := fp.check(l, &rec.tally); err != nil {
			return err
		}
	}

	// ESwitch × goto over the frames the dataplane layer replayed, timed the
	// same way: what the model adds around the bare pipeline.
	hl := fp.lane(headlineCell)
	d := p.decoded
	out := make([]dataplane.Verdict, len(d.frames))
	var passErr error
	ns, _ := perOpNs(p.b.probe, len(d.frames), func() {
		for pos := 0; pos < len(d.frames) && passErr == nil; pos += batchFrames {
			end := min(pos+batchFrames, len(d.frames))
			passErr = hl.w.ProcessBatch(d.frames[pos:end], out[pos:end])
		}
	})
	if passErr != nil {
		return passErr
	}
	rec.put("switches.eswitch_overhead_ns", "ns", ns-p.framesGotoNs)

	// The headline cell untraced, then with a span around every batch; the
	// ratio is the packet path's trace overhead.
	untraced, _, err := nsPerFrame(hl, cellTime)
	if err != nil {
		return err
	}
	traced, err := p.tracedBatches(hl, cellTime)
	if err != nil {
		return err
	}
	p.forwardRatio = ratio{traced: 1e3 / traced, untraced: untraced}
	us, err := hl.batchTimes(cellTime, 0)
	if err != nil {
		return err
	}
	rec.putTimed("switches.eswitch_goto_batch_p50_us", "us", median(us), len(us))

	// OVS × goto: statistics restart after the warm-up pass, so the ratios
	// describe the steady state of the trace.
	ovs := fp.lane(endToEndCells[0])
	model, ok := ovs.sw.(*switches.OVS)
	if !ok {
		return fmt.Errorf("model %q is not *switches.OVS", ovs.cell.Model)
	}
	ovs.warm(cellTime)
	model.Reset()
	rateCell(ovs.cell.Metric, "Mpps", cellTime, 1e-6, clockStride, ovs.step)
	if ovs.err != nil {
		return ovs.err
	}
	st := model.Stats()
	emc, mega, slow := float64(st.Counters["emc_hits"]), float64(st.Counters["megaflow_hits"]), float64(st.Counters["slow_misses"])
	total := emc + mega + slow
	rec.put("switches.ovs_emc_hit_ratio", "ratio", emc/total)
	rec.put("switches.ovs_megaflow_hit_ratio", "ratio", mega/total)
	rec.put("switches.ovs_slow_ratio", "ratio", slow/total)
	p.tr.count("switches.ovs.emc_hits", int(emc))
	p.tr.count("switches.ovs.megaflow_hits", int(mega))
	p.tr.count("switches.ovs.slow_misses", int(slow))

	// Cold pass: the first pass after Install on a fresh worker. The same
	// model then takes the decoded packets one by one through its primary
	// shard, whose megaflow table Stats exposes.
	cold := in.frames
	if len(cold) > coldPassFrames {
		cold = cold[:coldPassFrames]
	}
	var coldNs []float64
	var fresh *lane
	for i := 0; i < 3; i++ {
		if fresh, err = in.newLane(ovs.cell); err != nil {
			return err
		}
		fresh.frames = cold
		t0 := time.Now()
		for fresh.done < len(cold) {
			fresh.step()
		}
		coldNs = append(coldNs, float64(time.Since(t0).Nanoseconds())/float64(len(cold)))
		if fresh.err != nil {
			return fresh.err
		}
	}
	rec.putTimed("switches.ovs_cold_ns", "ns", median(coldNs), len(coldNs)*len(cold))
	for _, pkt := range p.decoded.pkts {
		if pkt == nil {
			continue
		}
		scratch := *pkt
		if _, err := fresh.sw.Process(&scratch); err != nil {
			return err
		}
	}
	entries := fresh.sw.Stats().Gauges["megaflow_entries"]
	if in.schema != packet.SchemaDefault {
		entries = 0 // the caches cannot key on a custom schema and are bypassed
	}
	rec.put("switches.ovs_megaflow_entries", "count", entries)

	for _, c := range []struct {
		name  string
		model string
		rep   usecases.Representation
	}{
		{"switches.install_eswitch_goto_us", "eswitch", usecases.RepGoto},
		{"switches.install_ovs_goto_us", "ovs", usecases.RepGoto},
		{"switches.install_eswitch_fused_us", "eswitch", usecases.RepFused},
	} {
		us, err := in.installTime(c.model, in.pipes[c.rep])
		if err != nil {
			return err
		}
		rec.put(c.name, "us", us)
	}
	return nil
}

// tracedBatches repeats the headline cell with a span recorded around
// every Worker.ProcessBatch call and, for the first batches, replays the
// batch layer by layer from outside under the same batch span: decode,
// the classifier lookups of each goto stage, and the pipeline on the
// decoded packets. It returns the traced rate in Mpps.
func (p *probes) tracedBatches(l *lane, d time.Duration) (float64, error) {
	tr, in := p.tr, p.e.forward.in
	view := in.dec.NewView()
	l.warm(d / 4)
	unit := 0
	tr.section()
	defer tr.endSection()
	c := rateCell("traced", "Mpps", d, 1e-6, clockStride, func() int {
		start := l.pos
		root := tr.begin("batch", -1, unit)
		id := tr.begin("switches.process_batch", root, unit)
		n := l.step()
		tr.end(id)
		if unit < layeredBatches {
			frames := l.frames[start : start+n]
			decoded := 0
			tr.in("packet.decode", root, unit, func() {
				for _, f := range frames {
					if in.dec.ParseInto(view, f) == nil {
						decoded++
					}
				}
			})
			tr.count("packet.decode.frames", n)
			tr.count("packet.decode.drops", n-decoded)
			p.replayLookups(root, unit, start, n)
		}
		tr.end(root)
		unit++
		return n
	})
	return c.Value, l.err
}

// layeredBatches is how many traced batches are also replayed layer by
// layer; the rest carry only the batch and process_batch spans.
const layeredBatches = 256

// replayLookups records the classifier and pipeline spans of one batch on
// the pre-decoded head of the trace (batches beyond it are skipped).
func (p *probes) replayLookups(root, unit, start, n int) {
	d, auto, tr := p.decoded, p.autoPath, p.tr
	if start+n > len(d.frames) {
		return
	}
	tr.in("classifier.lookup.stage0", root, unit, func() { auto.lookups0(start, start+n) })
	tr.in("classifier.lookup.stage1", root, unit, func() { auto.lookups1(start, start+n) })
	tr.in("dataplane.process", root, unit, func() {
		window := decodedTrace{views: d.views[start : start+n]}
		if d.pkts != nil {
			window.pkts = d.pkts[start : start+n]
		}
		if err := noDecodePass(p.gotoDP, p.gotoCtx, &window); err != nil && p.replayErr == nil {
			p.replayErr = err
		}
	})
}
