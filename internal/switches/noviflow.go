package switches

import (
	"fmt"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/telemetry"
)

// NoviFlow models a hardware OpenFlow switch built around TCAM pipeline
// stages (the paper's NoviSwitch 2128). Functionally it executes the
// installed pipeline exactly; its performance character is analytic:
//
//   - Throughput is line-rate regardless of table shapes — TCAM lookups
//     are O(1) — so both representations forward at ~10.7 Mpps (Table 1).
//   - Latency grows with the number of pipeline stages traversed
//     (6.4 µs universal → 8.4 µs goto in Table 1).
//   - Control-plane flow-mods stall forwarding while the TCAM is
//     reorganized; the stall grows with the size of the updated table.
//     This is the mechanism behind the reactiveness experiment (Fig. 4):
//     universal updates need M times more mods, each touching a table
//     M·N entries large, so at 100 updates/s the universal pipeline
//     loses ~20× throughput while the normalized one is unaffected.
type NoviFlow struct {
	dpSwitch
	entries []int // per-stage entry counts of the installed pipeline
}

// NewNoviFlow creates an unprogrammed hardware switch model.
func NewNoviFlow(opts ...Option) *NoviFlow {
	s := &NoviFlow{}
	s.applyCfg(buildCfg(opts))
	return s
}

// Name returns "noviflow".
func (s *NoviFlow) Name() string { return "noviflow" }

// Install programs the TCAM stages.
func (s *NoviFlow) Install(p *mat.Pipeline) error {
	if err := s.install("noviflow", p, dataplane.AutoTemplates); err != nil {
		return err
	}
	s.entries = nil
	for i := range p.Stages {
		s.entries = append(s.entries, len(p.Stages[i].Table.Entries))
	}
	return nil
}

// Update rewrites the dirty TCAM stages and their entry gauges.
func (s *NoviFlow) Update(p *mat.Pipeline, dirty []int) error {
	if err := s.update("noviflow", p, dirty); err != nil {
		return err
	}
	for _, si := range dirty {
		s.entries[si] = len(p.Stages[si].Table.Entries)
	}
	return nil
}

// ApplyMods is functionally a no-op (the benchmark reinstalls pipelines
// wholesale); its cost model lives in Perf and ReactiveThroughput.
func (s *NoviFlow) ApplyMods(int) error { return nil }

// Perf returns the hardware constants: line rate, per-stage latency, and
// the TCAM update stall model.
func (s *NoviFlow) Perf() PerfModel {
	return PerfModel{
		HWLineRateMpps:    10.73,
		BaseLatencyNs:     6_400,
		PerTableLatencyNs: 2_000,
		// One TCAM mod: fixed microcode cost plus per-entry shuffling in
		// the updated stage. Calibrated so that 100 updates/s × 8 mods on
		// a 160-entry universal table costs ~95% of forwarding capacity
		// (the paper's 20× loss) while 100 × 1 mod on a 20-entry stage is
		// invisible.
		ModStallNsBase:     200_000,
		ModStallNsPerEntry: 8_000,
	}
}

// Stats reports the per-stage match counts plus the TCAM capacity view:
// per-stage entry counts and the largest-stage size (the update-stall
// driver of the reactiveness model).
func (s *NoviFlow) Stats() telemetry.Snapshot {
	snap := s.pipelineStats("noviflow")
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]float64, len(s.entries)+1)
	}
	for i, n := range s.entries {
		snap.Gauges[fmt.Sprintf("tcam_stage%d_entries", i)] = float64(n)
	}
	snap.Gauges["tcam_largest_stage_entries"] = float64(s.LargestStageEntries())
	return snap
}

// LargestStageEntries returns the entry count of the switch's largest
// installed stage — the table a service update rewrites in the worst case.
func (s *NoviFlow) LargestStageEntries() int {
	max := 0
	for _, n := range s.entries {
		if n > max {
			max = n
		}
	}
	return max
}

// ReactiveThroughput evaluates the reactiveness model: with updRate
// service updates per second, each needing modsPerUpdate flow-mods against
// a stage of stageEntries entries, the fraction of time the forwarding
// pipeline is stalled is
//
//	busy = updRate × modsPerUpdate × (base + perEntry × stageEntries)
//
// and throughput is the line rate scaled by the unstalled fraction,
// floored at the switch's degraded slow-path rate (the paper's Fig. 4
// shows ~20× loss, not total collapse).
func (s *NoviFlow) ReactiveThroughput(updRate float64, modsPerUpdate, stageEntries int) float64 {
	pm := s.Perf()
	stallNsPerSec := updRate * float64(modsPerUpdate) * (pm.ModStallNsBase + pm.ModStallNsPerEntry*float64(stageEntries))
	busy := stallNsPerSec / 1e9
	avail := 1 - busy
	const floor = 0.045 // residual forwarding during constant reorganization
	if avail < floor {
		avail = floor
	}
	return pm.HWLineRateMpps * avail
}

// ReactiveLatency evaluates the latency side of Fig. 4. The paper finds
// latency "mostly independent from the control plane churn" for both
// representations, with a roughly 25% penalty for the longer normalized
// pipeline: TCAM reorganization contends with table *writes* (capacity)
// while admitted packets still flow through the ASIC stages at fixed
// per-stage delay. The model therefore reports pure pipeline-depth
// latency.
func (s *NoviFlow) ReactiveLatency(tablesTraversed float64) float64 {
	pm := s.Perf()
	base := pm.BaseLatencyNs
	if tablesTraversed > 1 {
		base += pm.PerTableLatencyNs * (tablesTraversed - 1)
	}
	return base
}
