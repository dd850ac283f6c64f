package switches

import (
	"fmt"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/telemetry"
)

// ESwitch models the template-specializing software switch of [Molnár et
// al., SIGCOMM'16]: on Install it compiles every table to the most
// efficient classifier template the table's shape admits (exact hash, LPM
// trie, or the ternary scan). This is the switch where normalization
// pays off directly: the universal gateway table is stuck with the ternary
// template while the decomposed stages compile to exact + LPM (§5,
// Table 1: 9.6 → 15.0 Mpps, 426 → 247 µs).
//
// All mutable per-packet state lives in workers (see dpSwitch), so the
// frame APIs are safe for concurrent callers and NewWorker hands out
// per-core forwarding contexts for the parallel harness.
type ESwitch struct {
	dpSwitch
}

// NewESwitch creates an unprogrammed ESwitch model.
func NewESwitch(opts ...Option) *ESwitch {
	s := &ESwitch{}
	s.applyCfg(buildCfg(opts))
	return s
}

// Name returns "eswitch".
func (s *ESwitch) Name() string { return "eswitch" }

// Install recompiles the datapath with per-table template specialization
// and publishes it; live workers pick it up on their next frame.
func (s *ESwitch) Install(p *mat.Pipeline) error {
	return s.install("eswitch", p, dataplane.AutoTemplates)
}

// Update re-specializes the templates of the dirty stages only.
func (s *ESwitch) Update(p *mat.Pipeline, dirty []int) error {
	return s.update("eswitch", p, dirty)
}

// ApplyMods models a flow-mod batch. ESwitch recompiles its datapath on
// changes; the functional state here is template-compiled and the
// benchmark updates reinstall, so this only invalidates nothing.
func (s *ESwitch) ApplyMods(int) error { return nil }

// Perf returns the latency calibration: reported latency is
// BaseLatencyNs + QueueFactor × measured service time, so the headline
// latency ratio between representations follows the real classifier work
// while the absolute scale matches the paper's testbed (§5, Table 1).
func (s *ESwitch) Perf() PerfModel {
	return PerfModel{BaseLatencyNs: 200_000, QueueFactor: 600}
}

// Stats reports the per-stage match counts plus the chosen classifier
// templates (as a template0..n gauge-free counter view would be lossy,
// templates ride along in the snapshot name-keyed counters as
// "template<i>_<name>" markers with value 1).
func (s *ESwitch) Stats() telemetry.Snapshot {
	snap := s.pipelineStats("eswitch")
	if tmpls := s.Templates(); len(tmpls) > 0 {
		if snap.Counters == nil {
			snap.Counters = make(map[string]uint64, len(tmpls))
		}
		for i, t := range tmpls {
			snap.Counters[fmt.Sprintf("template%d_%s", i, t)] = 1
		}
	}
	return snap
}

// Templates reports the chosen per-stage templates (for tests and the
// experiment logs).
func (s *ESwitch) Templates() []string {
	dp := s.dp.Load()
	if dp == nil {
		return nil
	}
	return dp.Templates()
}
