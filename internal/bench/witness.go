package bench

import (
	"fmt"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// WitnessPair couples the per-packet pipeline witnesses of one sampled
// packet run through the universal table and the goto-decomposed pipeline
// of the same workload — the runtime face of Theorem 1: the stage lists
// differ, the verdicts must not.
type WitnessPair struct {
	Universal  telemetry.Trace `json:"universal"`
	Decomposed telemetry.Trace `json:"decomposed"`
	// Agree reports verdict equality (the equivalence check).
	Agree bool `json:"agree"`
}

// TraceWitnesses samples every Nth packet of the standard gateway &
// load-balancer traffic, explains it through both the universal and the
// goto-decomposed datapath, and returns up to keep witness pairs. A
// disagreeing pair is returned too (Agree=false) — callers decide whether
// that is fatal.
func TraceWitnesses(cfg Config, every, keep int) ([]WitnessPair, error) {
	if every < 1 {
		every = 1
	}
	if keep < 1 {
		keep = 4
	}
	g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
	up, err := g.Build(usecases.RepUniversal)
	if err != nil {
		return nil, err
	}
	gp, err := g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	udp, err := dataplane.Compile(up, dataplane.AutoTemplates)
	if err != nil {
		return nil, fmt.Errorf("bench: compile universal: %w", err)
	}
	gdp, err := dataplane.Compile(gp, dataplane.AutoTemplates)
	if err != nil {
		return nil, fmt.Errorf("bench: compile goto: %w", err)
	}
	uctx, gctx := udp.NewCtx(), gdp.NewCtx()
	stream := trafficgen.GwLB(g, 4096, 1.0, cfg.Seed+1)

	var out []WitnessPair
	view := packet.DefaultDecoder().NewView()
	for i := 0; i < stream.Len() && len(out) < keep; i++ {
		pkt := stream.Next()
		if (i+1)%every != 0 {
			continue
		}
		// Explain mutates the view (TTL, rewrites), so each run loads the
		// packet afresh.
		view.LoadPacket(pkt)
		uv, utr, err := udp.ProcessExplainView(view, uctx)
		if err != nil {
			return nil, err
		}
		view.LoadPacket(pkt)
		gv, gtr, err := gdp.ProcessExplainView(view, gctx)
		if err != nil {
			return nil, err
		}
		agree := uv.Drop == gv.Drop && (uv.Drop || uv.Port == gv.Port)
		out = append(out, WitnessPair{Universal: *utr, Decomposed: *gtr, Agree: agree})
	}
	return out, nil
}
