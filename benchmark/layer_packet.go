package main

import (
	"manorm/internal/packet"
)

// probeFrames caps how many frames of the trace the packet-path layer
// probes replay: enough distinct flows to defeat the CPU caches the way
// the trace does, few enough that a 10 µs ternary lookup still gets three
// passes inside a probe's time.
const probeFrames = 16384

// decodedTrace is the head of the trace decoded once, from outside, into
// the forms the classifier and dataplane probes take as pre-decoded input.
type decodedTrace struct {
	frames [][]byte
	// views holds one decoded FieldView per frame, nil where decode failed.
	views []*packet.FieldView
	// pkts holds the fixed-struct form, default schema only.
	pkts []*packet.Packet
	// ok counts frames that decoded.
	ok int
}

func decodeTrace(in *forwardInputs) *decodedTrace {
	n := len(in.frames)
	if n > probeFrames {
		n = probeFrames
	}
	d := &decodedTrace{frames: in.frames[:n], views: make([]*packet.FieldView, n)}
	if in.schema == packet.SchemaDefault {
		d.pkts = make([]*packet.Packet, n)
	}
	for i, f := range d.frames {
		v, err := in.dec.Parse(f)
		if err != nil {
			continue
		}
		d.views[i] = v
		d.ok++
		if d.pkts != nil {
			d.pkts[i], _ = packet.Parse(f)
		}
	}
	return d
}

// packetLayer times the decode layer alone: Decoder.ParseInto of the
// schema's built-in decoder over the frames the other packet-path layers
// replay, so that the layers' rows add up.
func (p *probes) packetLayer() error {
	in, frames := p.e.forward.in, p.decoded.frames
	view := in.dec.NewView()
	drops := 0
	pass := func() {
		drops = 0
		for _, f := range frames {
			if err := in.dec.ParseInto(view, f); err != nil {
				drops++
			}
		}
	}
	ns, n := perOpNs(p.b.probe, len(frames), pass)
	p.rec.putTimed("packet.decode_ns", "ns", ns, n)
	p.rec.put("packet.decode_drops", "count", float64(drops))
	malformed := countMalformed(frames)
	p.rec.tally.check(drops == malformed, "packet.decode_drops: decoder rejected %d frames, the wire damaged %d", drops, malformed)
	p.rec.put("packet.decode_allocs", "allocs/kframe", 1000*mallocsPer(len(frames), pass))
	return nil
}

// countMalformed counts the frames the wire damaged so that any decoder
// must reject them. It looks at the bytes, not at a decoder: a frame cut
// below the first header cannot be parsed by any of them.
func countMalformed(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if len(f) < packet.EthHeaderLen {
			n++
		}
	}
	return n
}
