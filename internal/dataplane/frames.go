package dataplane

import (
	"fmt"

	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// This file is the zero-copy wire-ingest surface: raw frames decode
// through a per-worker FrameBatch arena (a ring of reusable FieldViews
// over one decoder — the default schema's unless another is named) and
// run straight through the interpreted or fused pipeline core.
// ProcessFrames is the batch entry the switch models build their Worker
// APIs on.

// frameRingLen is the capacity of an arena's view ring. It is
// deliberately small: each live view is working-set the forwarding loop
// drags through the cache, and a ring sized to a whole measurement batch
// (64) costs double-digit percent throughput against a hot scratch slot.
// Four keeps the last few views addressable (enough for any decode hook
// that looks backward) at negligible cache cost.
const frameRingLen = 4

// ProcessOpt configures one processing call.
type ProcessOpt func(*ProcessOpts)

// ProcessOpts is the unified option set of the frame entry point. Build
// one per worker with NewProcessOpts and reuse it — a nil *ProcessOpts
// means plain processing and is always valid. New processing modes
// extend this struct instead of adding another entry-point signature.
type ProcessOpts struct {
	// onDecode runs after a frame decodes and before the pipeline; a
	// false return drops the frame without traversal.
	onDecode func(view *packet.FieldView) bool
}

// NewProcessOpts builds a reusable option set.
func NewProcessOpts(opts ...ProcessOpt) *ProcessOpts {
	o := &ProcessOpts{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithDecodeHook runs fn on every successfully decoded frame before the
// pipeline; returning false drops the frame. This is how per-packet
// model overheads (e.g. the Lagopus record lift) ride the frame path
// without a dedicated entry point.
func WithDecodeHook(fn func(view *packet.FieldView) bool) ProcessOpt {
	return func(o *ProcessOpts) { o.onDecode = fn }
}

// FrameBatch is the per-worker arena of the wire-ingest API: a ring of
// reusable FieldViews over one decoder, the pipeline scratch Ctx, and
// typed per-reason decode counters. One FrameBatch per goroutine; it is
// not safe for concurrent use. Views are loans — a view is overwritten
// ring-capacity frames later — so callers must not retain them. A view
// is more than a loan of the arena: its payload, and on a generic schema
// its slots, are read out of the frame it was decoded from (see
// packet.FieldView), so it is good only while that frame's bytes are
// unchanged. ProcessFrames finishes with each view before it returns; a
// caller of Decode that recycles its receive buffer must do the same, or
// Clone the view.
type FrameBatch struct {
	dec  *packet.Decoder
	ring *packet.ViewRing

	// ctx caches the pipeline scratch per installed pipeline:
	// ProcessFrames re-provisions it when the pipeline pointer changes —
	// the reinstall-epoch bookkeeping the switch workers otherwise carry
	// by hand.
	ctxOwner *Pipeline
	ctx      *Ctx

	// Local tallies always count; the tel* counters additionally record
	// into a registry after Attach.
	truncated   uint64
	badHeader   uint64
	unknownNext uint64
	telTrunc    *telemetry.Counter
	telBad      *telemetry.Counter
	telUnknown  *telemetry.Counter
}

// NewFrameBatch builds the per-worker arena over a decoder; nil selects
// the default schema's (packet.DefaultDecoder).
func NewFrameBatch(dec *packet.Decoder) *FrameBatch {
	if dec == nil {
		dec = packet.DefaultDecoder()
	}
	return &FrameBatch{dec: dec, ring: dec.NewRing(frameRingLen)}
}

// Attach registers the arena's typed decode counters in reg
// ("ingest.drops.truncated", "ingest.drops.bad_header",
// "ingest.unknown_next") and returns the arena. Counters are shared by
// name, so the arenas of many workers attached to one registry
// aggregate naturally. A nil registry is a no-op.
func (a *FrameBatch) Attach(reg *telemetry.Registry) *FrameBatch {
	if reg == nil {
		return a
	}
	a.telTrunc = reg.Counter("ingest.drops.truncated")
	a.telBad = reg.Counter("ingest.drops.bad_header")
	a.telUnknown = reg.Counter("ingest.unknown_next")
	return a
}

// Drops reports the arena's decode tallies: frames rejected as
// truncated, frames rejected for a bad header, and accepted frames
// whose parse stopped at an unknown next-header (informational — those
// frames were processed).
func (a *FrameBatch) Drops() (truncated, badHeader, unknownNext uint64) {
	return a.truncated, a.badHeader, a.unknownNext
}

// DropTotal is the number of frames the arena rejected at decode.
func (a *FrameBatch) DropTotal() uint64 { return a.truncated + a.badHeader }

// Decode parses one frame into the arena's next view and returns it.
// Decode failures bump the typed per-reason counter and return the error;
// the caller decides the verdict (ProcessFrames drops such frames). The
// view is reused ring-capacity calls later, so callers must not retain
// it, and it aliases frame, which must stay unchanged while the view is
// read.
func (a *FrameBatch) Decode(frame []byte) (*packet.FieldView, error) {
	v := a.ring.Next()
	if err := a.dec.ParseInto(v, frame); err != nil {
		a.countErr(err)
		return nil, err
	}
	if v.UnknownNext() {
		a.unknownNext++
		if a.telUnknown != nil {
			a.telUnknown.Inc()
		}
	}
	return v, nil
}

// countErr records a decode failure under its typed reason.
func (a *FrameBatch) countErr(err error) {
	if packet.DecodeReasonOf(err) == packet.ReasonBadHeader {
		a.badHeader++
		if a.telBad != nil {
			a.telBad.Inc()
		}
		return
	}
	a.truncated++
	if a.telTrunc != nil {
		a.telTrunc.Inc()
	}
}

// ctxFor returns the arena's scratch Ctx for p, re-provisioning when the
// pipeline changed since the last call.
func (a *FrameBatch) ctxFor(p *Pipeline) *Ctx {
	if a.ctxOwner != p {
		a.ctxOwner = p
		a.ctx = p.NewCtx()
	}
	return a.ctx
}

// ProcessFrames is the zero-copy wire-ingest entry point: it decodes raw
// frames through the arena's ring and runs each decoded view through the
// pipeline, writing the i-th verdict into out[i]. Malformed frames drop,
// counted per reason in the arena; well-formed frames take the fused
// fast path when the pipeline is fused. The path allocates nothing,
// malformed frames included (the decoders return prebuilt typed errors).
// On a generic schema decode is the parse-graph walk alone; a field is
// extracted from the frame when the pipeline, the fused loop or a decode
// hook first reads it, so a frame costs what the program consults, not
// what the schema declares.
//
// The arena's decoder must be of the pipeline's schema. opts may be nil.
func (p *Pipeline) ProcessFrames(frames [][]byte, arena *FrameBatch, out []Verdict, opts *ProcessOpts) error {
	if arena == nil {
		return fmt.Errorf("dataplane: pipeline %s: ProcessFrames needs a FrameBatch arena", p.Name)
	}
	if len(out) < len(frames) {
		return fmt.Errorf("dataplane: verdict buffer %d too small for batch of %d", len(out), len(frames))
	}
	if arena.dec.Schema() != p.schema {
		return fmt.Errorf("dataplane: pipeline %s compiled for schema %s; arena decodes schema %s", p.Name, p.schema.Name, arena.dec.Schema().Name)
	}
	ctx := arena.ctxFor(p)
	var hook func(*packet.FieldView) bool
	if opts != nil {
		hook = opts.onDecode
	}
	for i, f := range frames {
		view, err := arena.Decode(f)
		if err != nil {
			out[i] = Verdict{Drop: true}
			continue
		}
		if hook != nil && !hook(view) {
			out[i] = Verdict{Drop: true}
			continue
		}
		var v Verdict
		if p.fusedT != nil {
			v, err = p.processFusedView(view, ctx)
		} else {
			v, err = p.process(view, ctx, nil, nil)
		}
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}
