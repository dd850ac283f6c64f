// Package bench is the experiment registry behind cmd/mabench: it
// regenerates every table and figure of the paper's evaluation (§2 claims,
// Table 1, Fig. 4) plus the ablations and correctness smokes called out in
// DESIGN.md, on the switch models of internal/switches. Experiments lists
// them; each entry measures, renders and gates itself.
//
// Absolute Mpps numbers depend on the host; what the harness is built to
// reproduce are the paper's shapes: who wins, by what factor, and where
// the behavior flips (see EXPERIMENTS.md). Speed claims are stated in the
// repo benchmark (benchmark/), not here.
package bench

import (
	"time"

	"manorm/internal/packet"
	"manorm/internal/stats"
	"manorm/internal/switches"
	"manorm/internal/usecases"
)

// Config controls measurement effort and the size of the sized experiments.
type Config struct {
	// Services (N) and Backends (M): the paper uses 20 and 8.
	Services, Backends int
	// Packets per measurement loop.
	Packets int
	// LatencySamples bounds the per-packet timing samples.
	LatencySamples int
	// Seed drives workload generation.
	Seed int64
	// Telemetry attaches the fabric's metrics registry snapshot (epoch
	// lag, per-member divergence gauges) to each fabric-churn row.
	Telemetry bool
	// Workers is the ceiling of the multi-core scaling curve (counts
	// double up to it); Fabric is the fabric-churn member count; Duration
	// overrides the soak length (0 keeps the spec's 60s). They are
	// mabench's -workers, -fabric and -duration.
	Workers  int
	Fabric   int
	Duration time.Duration
}

// DefaultConfig mirrors the paper's setup: 20 random services, 8 backends,
// 64-byte packets.
func DefaultConfig() Config {
	return Config{Services: 20, Backends: 8, Packets: 400_000, LatencySamples: 40_000, Seed: 42, Workers: 8, Fabric: 3}
}

// QuickConfig is a fast variant for tests.
func QuickConfig() Config {
	return Config{Services: 20, Backends: 8, Packets: 30_000, LatencySamples: 4_000, Seed: 42, Workers: 8, Fabric: 3}
}

// StaticResult is one (switch, representation) cell pair of Table 1.
type StaticResult struct {
	Switch string
	Rep    usecases.Representation
	// RateMpps is the forwarding rate.
	RateMpps float64
	// DelayUs is the modeled 3rd-quartile latency in microseconds.
	DelayUs float64
	// ServiceNsP75 is the measured 3rd-quartile per-packet service time.
	ServiceNsP75 float64
	// Templates lists the per-stage classifier templates (ESwitch's
	// explanatory variable).
	Templates []string
}

// MeasureStatic runs the static-performance measurement of Table 1 for one
// switch and representation.
func MeasureStatic(swName string, rep usecases.Representation, cfg Config) (*StaticResult, error) {
	sw, err := switches.New(swName)
	if err != nil {
		return nil, err
	}
	// Measurements run on 64-byte wire frames: each processed packet pays
	// for header parsing (with checksum verification) plus
	// classification, as a real software datapath does.
	p, frames, err := SchemaWorkload(packet.SchemaDefault, rep, cfg)
	if err != nil {
		return nil, err
	}
	if err := sw.Install(p); err != nil {
		return nil, err
	}

	// Warm-up cycle (fills the OVS cache, faults in everything).
	for _, f := range frames {
		if _, err := sw.ProcessFrame(f); err != nil {
			return nil, err
		}
	}

	res := &StaticResult{Switch: swName, Rep: rep}
	if es, ok := sw.(*switches.ESwitch); ok {
		res.Templates = es.Templates()
	}
	pm := sw.Perf()

	// Throughput: tight loop, no per-packet timers.
	var tablesSum int64
	start := time.Now()
	for i := 0; i < cfg.Packets; i++ {
		v, err := sw.ProcessFrame(frames[i%len(frames)])
		if err != nil {
			return nil, err
		}
		tablesSum += int64(v.Tables)
	}
	elapsed := time.Since(start)
	serviceNs := float64(elapsed.Nanoseconds()) / float64(cfg.Packets)
	avgTables := float64(tablesSum) / float64(cfg.Packets)

	// Latency: sampled per-packet service times through the switch's
	// latency calibration.
	res75 := stats.NewReservoir(8192, cfg.Seed)
	for i := 0; i < cfg.LatencySamples; i++ {
		f := frames[i%len(frames)]
		t0 := time.Now()
		if _, err := sw.ProcessFrame(f); err != nil {
			return nil, err
		}
		res75.Add(float64(time.Since(t0).Nanoseconds()))
	}
	p75 := res75.Quantile(0.75)
	res.ServiceNsP75 = p75

	if pm.HWLineRateMpps > 0 {
		// Hardware: line rate; latency from the pipeline-depth model.
		res.RateMpps = pm.HWLineRateMpps
		lat := pm.BaseLatencyNs
		if avgTables > 1 {
			lat += pm.PerTableLatencyNs * (avgTables - 1)
		}
		res.DelayUs = lat / 1000
		return res, nil
	}
	res.RateMpps = 1000 / serviceNs // packets per microsecond = Mpps
	res.DelayUs = (pm.BaseLatencyNs + pm.QueueFactor*p75) / 1000
	return res, nil
}

// Table1 regenerates the paper's Table 1: static performance of the
// universal and goto representations on all four switches, plus the
// compiler-fused form as the zero-join reference point.
func Table1(cfg Config) ([]*StaticResult, error) {
	var out []*StaticResult
	for _, sw := range switches.ModelNames() {
		for _, rep := range []usecases.Representation{usecases.RepUniversal, usecases.RepGoto, usecases.RepFused} {
			r, err := MeasureStatic(sw, rep, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
