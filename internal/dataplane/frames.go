package dataplane

import (
	"fmt"

	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// This file is the zero-copy wire-ingest surface: raw frames decode
// through a per-worker FrameBatch arena (a ring of reusable decode
// targets) and run straight through the interpreted or fused pipeline
// core, with no intermediate *packet.Packet allocation. The legacy
// struct-based entry points remain as thin adapters over the same core
// loop; ProcessFrames is the batch entry the switch models build their
// Worker APIs on.

// frameRingLen is the capacity of a schema arena's view ring. It is
// deliberately small: each live view is working-set the forwarding loop
// drags through the cache, and a ring sized to a whole measurement batch
// (64) costs double-digit percent throughput against a hot scratch slot.
// Four keeps the last few views addressable (enough for any decode hook
// that looks backward) at negligible cache cost.
const frameRingLen = 4

// ProcessOpt configures one processing call.
type ProcessOpt func(*ProcessOpts)

// ProcessOpts is the unified option set of the processing entry points.
// Build one per worker with NewProcessOpts and reuse it — a nil
// *ProcessOpts means plain processing and is always valid. All options
// funnel into the one general loop behind Process / ProcessBatch /
// ProcessExplain / ProcessFrames, so new processing modes extend this
// struct instead of adding another entry-point signature.
type ProcessOpts struct {
	// trace, when non-nil, collects the megaflow wildcard trace of each
	// processed packet (reset per packet).
	trace *Trace
	// onDecode runs after a frame decodes and before the pipeline; a
	// false return drops the frame without traversal. Exactly one of its
	// arguments is non-nil, mirroring the decode mode.
	onDecode func(pkt *packet.Packet, view *packet.FieldView) bool
}

// NewProcessOpts builds a reusable option set.
func NewProcessOpts(opts ...ProcessOpt) *ProcessOpts {
	o := &ProcessOpts{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithTrace collects each packet's megaflow wildcard trace into tr.
func WithTrace(tr *Trace) ProcessOpt {
	return func(o *ProcessOpts) { o.trace = tr }
}

// WithDecodeHook runs fn on every successfully decoded frame before the
// pipeline; returning false drops the frame. This is how per-packet
// model overheads (e.g. the Lagopus record lift) ride the frame path
// without a dedicated entry point.
func WithDecodeHook(fn func(pkt *packet.Packet, view *packet.FieldView) bool) ProcessOpt {
	return func(o *ProcessOpts) { o.onDecode = fn }
}

// FrameBatch is the per-worker arena of the wire-ingest API: reusable
// decode targets (a FieldView ring under a schema decoder, one hot
// scratch Packet on the default path), the pipeline scratch Ctx, and
// typed per-reason decode counters. One FrameBatch per goroutine; it is
// not safe for concurrent use. Decode targets are loans — a view is
// overwritten ring-capacity frames later, the default-path Packet by the
// very next frame — so callers must not retain them. A schema-path view
// is more than a loan of the arena: it reads its slots out of the frame it
// was decoded from, on first use (see packet.FieldView), so it is good
// only while that frame's bytes are unchanged. ProcessFrames finishes
// with each view before it returns; a caller of Decode that recycles its
// receive buffer must do the same, or Clone the view.
type FrameBatch struct {
	dec  *packet.Decoder
	ring *packet.ViewRing
	// scratch is the default-path decode target: one hot Packet, exactly
	// the per-worker scratch the switch models carried before this API.
	scratch packet.Packet

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

// NewFrameBatch builds the per-worker arena. A nil decoder selects the
// default-schema ingest path (hot scratch Packet, hand-written codec); a
// non-nil decoder selects the schema path (FieldView ring through the
// compiled parse graph).
func NewFrameBatch(dec *packet.Decoder) *FrameBatch {
	a := &FrameBatch{dec: dec}
	if dec != nil {
		a.ring = dec.NewRing(frameRingLen)
	}
	return a
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

// Decode parses one frame into the arena's next decode target and
// returns the decoded form: (pkt, nil) on the default path, (nil, view)
// on the schema path. Decode failures bump the typed per-reason counter
// and return the error; the caller decides the verdict (ProcessFrames
// drops such frames). The returned target is reused by a later Decode —
// after ring-capacity calls on the schema path, by the very next call on
// the default path — so callers must not retain it; a schema view also
// aliases frame, which must stay unchanged while the view is read.
func (a *FrameBatch) Decode(frame []byte) (*packet.Packet, *packet.FieldView, error) {
	if a.ring != nil {
		v := a.ring.Next()
		if err := a.dec.ParseInto(v, frame); err != nil {
			a.countErr(err)
			return nil, nil, err
		}
		if v.UnknownNext() {
			a.unknownNext++
			if a.telUnknown != nil {
				a.telUnknown.Inc()
			}
		}
		return nil, v, nil
	}
	p := &a.scratch
	if err := p.ParseInto(frame); err != nil {
		a.countErr(err)
		return nil, nil, err
	}
	a.noteLegacyUnknown(p)
	return p, nil, nil
}

// noteLegacyUnknown counts default-path frames whose parse stopped short
// of a known L3/L4 stack — the hand-written codec's equivalent of the
// parse graph's unknown next-header exit.
func (a *FrameBatch) noteLegacyUnknown(p *packet.Packet) {
	if p.EthType != packet.EtherTypeIPv4 ||
		(p.HasIPv4 && !p.HasL4 && p.Proto != packet.ProtoTCP && p.Proto != packet.ProtoUDP) {
		a.unknownNext++
		if a.telUnknown != nil {
			a.telUnknown.Inc()
		}
	}
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
// frames through the arena's ring and runs each decoded packet through
// the pipeline, writing the i-th verdict into out[i]. Malformed frames
// drop, counted per reason in the arena; well-formed frames take the
// fused fast path when the pipeline is fused and no option forces the
// general loop. The path allocates nothing, malformed frames included
// (the decoders return prebuilt typed errors). On the schema path decode
// is the parse-graph walk alone; a field is extracted from the frame when
// the pipeline, the fused loop or a decode hook first reads it, so a
// frame costs what the program consults, not what the schema declares.
//
// The arena's decode mode must match the pipeline: a schema pipeline
// needs an arena built on a decoder of the same schema, a default
// pipeline needs a default (nil-decoder) arena. opts may be nil.
func (p *Pipeline) ProcessFrames(frames [][]byte, arena *FrameBatch, out []Verdict, opts *ProcessOpts) error {
	if arena == nil {
		return fmt.Errorf("dataplane: pipeline %s: ProcessFrames needs a FrameBatch arena", p.Name)
	}
	if len(out) < len(frames) {
		return fmt.Errorf("dataplane: verdict buffer %d too small for batch of %d", len(out), len(frames))
	}
	if p.schema != nil {
		if arena.dec == nil || arena.dec.Schema() != p.schema {
			return fmt.Errorf("dataplane: pipeline %s compiled for schema %s; arena decoder does not match", p.Name, p.schema.Name)
		}
	} else if arena.dec != nil {
		return fmt.Errorf("dataplane: pipeline %s uses the default packet path; arena was built for schema %s", p.Name, arena.dec.Schema().Name)
	}
	ctx := arena.ctxFor(p)
	var tr *Trace
	var hook func(*packet.Packet, *packet.FieldView) bool
	if opts != nil {
		tr, hook = opts.trace, opts.onDecode
	}
	if tr == nil && hook == nil && arena.ring == nil {
		return p.framesDefault(frames, arena, out, ctx)
	}
	for i, f := range frames {
		pkt, view, err := arena.Decode(f)
		if err != nil {
			out[i] = Verdict{Drop: true}
			continue
		}
		if hook != nil && !hook(pkt, view) {
			out[i] = Verdict{Drop: true}
			continue
		}
		var v Verdict
		if tr != nil {
			tr.Reset()
			v, err = p.process(pkt, view, ctx, tr, nil)
		} else if p.fusedT != nil {
			if view != nil {
				v, err = p.processFusedView(view, ctx)
			} else {
				v, err = p.processFused(pkt, ctx)
			}
		} else {
			v, err = p.process(pkt, view, ctx, nil, nil)
		}
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// framesDefault is the specialized default-schema loop behind
// ProcessFrames when no option forces the general path: the per-frame
// decode is inlined against the arena's scratch ring so the steady state
// matches the hand-written parse-and-process loop the switch workers
// used to carry.
func (p *Pipeline) framesDefault(frames [][]byte, arena *FrameBatch, out []Verdict, ctx *Ctx) error {
	fused := p.fusedT != nil
	pkt := &arena.scratch
	for i, f := range frames {
		if err := pkt.ParseInto(f); err != nil {
			arena.countErr(err)
			out[i] = Verdict{Drop: true}
			continue
		}
		arena.noteLegacyUnknown(pkt)
		var v Verdict
		var err error
		if fused {
			v, err = p.processFused(pkt, ctx)
		} else {
			v, err = p.process(pkt, nil, ctx, nil, nil)
		}
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}
