package dataplane

import (
	"fmt"

	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// ProcessExplain runs one packet through the pipeline exactly like
// Process (actions applied and stored back into pkt, counters updated)
// while building a per-packet witness: every table visited, the matched
// rule, the applied actions and the join mechanism that carried execution
// to the next stage. The witness of a universal table and of its
// decomposed pipeline on the same packet must agree on the verdict — a
// runtime instance of the paper's Theorem 1 equivalence, with the
// per-stage records showing *how* each representation reached it.
//
// Like Process it is an adapter over the view path (ProcessExplainView),
// for pipelines compiled against the default schema.
func (p *Pipeline) ProcessExplain(pkt *packet.Packet, ctx *Ctx) (Verdict, *telemetry.Trace, error) {
	view := ctx.packetView(pkt)
	v, wit, err := p.ProcessExplainView(view, ctx)
	view.StorePacket(pkt)
	return v, wit, err
}

// ProcessExplainView is ProcessView plus the per-packet witness.
//
// Explain is the sampled slow path of the trace facility; it allocates
// (one Trace plus a record per stage) and is not meant for every packet.
// It runs the same general loop ProcessView does — the witness branches
// are nil-guarded inside it.
func (p *Pipeline) ProcessExplainView(view *packet.FieldView, ctx *Ctx) (Verdict, *telemetry.Trace, error) {
	if err := p.checkView(view); err != nil {
		return Verdict{}, nil, err
	}
	wit := &telemetry.Trace{Pipeline: p.Name}
	v, err := p.process(view, ctx, nil, wit)
	return v, wit, err
}

// renderAction formats one compiled action for witness output.
func renderAction(a Action, schema *packet.HeaderSchema) string {
	switch a.Kind {
	case ActOutput:
		return fmt.Sprintf("out=%d", a.Value)
	case ActSetMeta:
		return fmt.Sprintf("meta[%d]=%d", a.Meta, a.Value)
	case ActDecTTL:
		return "dec_ttl"
	case ActSetField:
		return renderSetField(schema, a.Slot, a.Value)
	case ActDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", a.Kind)
	}
}

// renderSetField formats a field write by the name of the slot it writes.
func renderSetField(schema *packet.HeaderSchema, slot int, v uint64) string {
	return fmt.Sprintf("set %s=%#x", schema.SlotName(slot), v)
}
