package switches

import (
	"manorm/internal/classifier"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/telemetry"
)

// Lagopus models the Lagopus software OpenFlow switch: a faithful but
// generic interpreted datapath. Every table uses the same tuple-space
// classifier regardless of shape, and each packet is lifted into a generic
// attribute record before matching — the interpretive overhead that makes
// the real Lagopus both slower than OVS/ESwitch and insensitive to the
// pipeline representation (§5, Table 1: 1.4 Mpps either way).
//
// Workers carry the lift flag, so the per-packet record construction is
// paid on the concurrent frame paths exactly as on the packet path.
type Lagopus struct {
	dpSwitch
}

// NewLagopus creates an unprogrammed Lagopus model.
func NewLagopus(opts ...Option) *Lagopus {
	s := &Lagopus{}
	s.lift = true
	s.applyCfg(buildCfg(opts))
	return s
}

// Name returns "lagopus".
func (s *Lagopus) Name() string { return "lagopus" }

// Install programs the interpreted pipeline.
func (s *Lagopus) Install(p *mat.Pipeline) error {
	return s.install("lagopus", p, dataplane.FixedTemplate(classifier.ForceTupleSpace))
}

// Update reprograms the dirty stages of the interpreted pipeline.
func (s *Lagopus) Update(p *mat.Pipeline, dirty []int) error {
	return s.update("lagopus", p, dirty)
}

// ApplyMods is a no-op for the model.
func (s *Lagopus) ApplyMods(int) error { return nil }

// Stats reports the per-stage match counts of the interpreted pipeline.
func (s *Lagopus) Stats() telemetry.Snapshot { return s.pipelineStats("lagopus") }

// Perf returns the latency calibration (see ESwitch.Perf for the formula).
func (s *Lagopus) Perf() PerfModel {
	return PerfModel{BaseLatencyNs: 600_000, QueueFactor: 300}
}
