package main

import "manorm/internal/telemetry"

// telemetryOps is how many instrument updates one pass performs.
const telemetryOps = 1 << 16

// telemetryLayer prices the two instruments the packet path updates when
// telemetry is on: a latency histogram observation and a counter.
func (p *probes) telemetryLayer() error {
	reg := telemetry.NewRegistry()
	h, c := reg.Histogram("probe.latency_ns"), reg.Counter("probe.count")
	ns, n := perOpNs(p.b.probe, telemetryOps, func() {
		for i := 0; i < telemetryOps; i++ {
			h.Observe(float64(100 + i&1023))
		}
	})
	p.rec.putTimed("telemetry.observe_ns", "ns", ns, n)
	ns, n = perOpNs(p.b.probe, telemetryOps, func() {
		for i := 0; i < telemetryOps; i++ {
			c.Inc()
		}
	})
	p.rec.putTimed("telemetry.counter_ns", "ns", ns, n)
	return nil
}
