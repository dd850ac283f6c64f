package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"manorm/internal/dataplane"
)

// ratio is the time one unit of a phase's headline work takes (a frame, an
// intent, a toolchain pass), measured twice in the traced run: with spans
// recorded around it and without.
type ratio struct {
	traced, untraced float64
}

func (r ratio) value() float64 { return r.traced / r.untraced }

// probes is the traced pass of one run. It times every layer from outside,
// around public calls of the internal/* packages, records a span at each
// such boundary, and yields the per-layer metrics. State the layers hand
// each other lives here.
type probes struct {
	e   *env
	b   budget
	rec *recorder
	tr  *tracer

	// Packet path: the decoded head of the trace, the goto pipeline's
	// lookups replayed from outside, and the compiled goto pipeline.
	decoded      *decodedTrace
	autoPath     *gotoPath
	gotoDP       *dataplane.Pipeline
	gotoCtx      *dataplane.Ctx
	framesGotoNs float64
	replayErr    error

	// Normal forms: the size sweep.
	sweep map[string]*sweepProgram

	// The headline metric of each phase, traced and untraced.
	forwardRatio, updateRatio, toolchainRatio ratio
}

// runTraced runs every layer's probes on the phase inputs of this
// workload. All per-layer metrics are reported on all workloads: a layer
// reads the inputs of its phase, so its numbers move on the workload that
// moves that phase and repeat on the others.
func (e *env) runTraced(b budget, rec *recorder) error {
	p := &probes{e: e, b: b, rec: rec, tr: rec.trace, decoded: decodeTrace(e.forward.in)}
	for _, layer := range []struct {
		name string
		run  func() error
	}{
		{"packet", p.packetLayer},
		{"classifier", p.classifierLayer},
		{"dataplane", p.dataplaneLayer},
		{"switches", p.switchesLayer},
		{"controlplane", p.controlplaneLayer},
		{"openflow", p.openflowLayer},
		{"toolchain sweep", p.runSweep},
		{"fd", p.fdLayer},
		{"core", p.coreLayer},
		{"netkat", p.netkatLayer},
		{"fdd", p.fddLayer},
		{"confluence", p.confluenceLayer},
		{"fabric", p.fabricLayer},
		{"telemetry", p.telemetryLayer},
		{"process", p.processWide},
	} {
		if err := layer.run(); err != nil {
			return fmt.Errorf("%s layer: %w", layer.name, err)
		}
	}
	return p.replayErr
}

// processWide reports what belongs to the run as a whole: what tracing
// costs the headline metric of the phase this workload moves (time per unit
// of work, traced ÷ untraced), memory,
// and the share of checked outputs that disagreed with the reference.
func (p *probes) processWide() error {
	in := p.e.tool.in
	untraced, err := passCell("untraced", "ms", p.b.probe, 3, time.Millisecond, func() error {
		_, err := toNormalForm(in.normalizeTable, nil)
		return err
	})
	if err != nil {
		return err
	}
	unit := len(sweepOrder)
	traced, err := passCell("traced", "ms", p.b.probe, 3, time.Millisecond, func() error {
		root := p.tr.begin("program_normalize_ms", -1, unit)
		_, err := toNormalForm(in.normalizeTable, func(stage string, start, end time.Time) {
			p.tr.add(stage, root, unit, start, end)
		})
		p.tr.end(root)
		return err
	})
	if err != nil {
		return err
	}
	p.toolchainRatio = ratio{traced: traced.Value, untraced: untraced.Value}

	headline := map[string]ratio{"forward": p.forwardRatio, "update": p.updateRatio, "toolchain": p.toolchainRatio}
	p.rec.put("trace_overhead_ratio", "ratio", headline[p.e.sc.Phase].value())

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	p.rec.put("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Linux reports kilobytes
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.rec.put("heap_inuse_mb", "MB", float64(ms.HeapInuse)/(1<<20))

	t := p.rec.tally
	p.rec.put("failed_ratio", "ratio", float64(t.failed)/float64(t.attempted))
	return nil
}
