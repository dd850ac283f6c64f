// Package trafficgen generates the synthetic workloads driving the
// evaluation: streams of 64-byte TCP packets aimed at a gateway &
// load-balancer configuration (the paper's measurement traffic: 20 random
// services, 8 backends each) and L3 routing traffic.
package trafficgen

import (
	"math/rand"

	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// Stream is a pre-generated cyclic packet trace. Pre-generation keeps the
// measured hot loop free of generator cost; cycling approximates an
// endless trace.
type Stream struct {
	pkts []*packet.Packet
	pos  int
}

// Next returns the next packet of the trace (cycling). The caller may
// mutate the packet (the dataplane rewrites headers); field values the
// classifiers inspect are restored on the next cycle by regenerating from
// the template copy.
func (s *Stream) Next() *packet.Packet {
	p := s.pkts[s.pos]
	s.pos++
	if s.pos == len(s.pkts) {
		s.pos = 0
	}
	return p
}

// Len returns the trace length.
func (s *Stream) Len() int { return len(s.pkts) }

// Packets exposes the underlying trace (read-only use).
func (s *Stream) Packets() []*packet.Packet { return s.pkts }

// GwLB generates traffic for a gateway & load-balancer configuration:
// packets to random services with uniformly random client addresses, so
// every backend prefix of every service is exercised. hitRatio (0..1]
// controls the fraction of packets addressed to installed services; the
// rest miss (unknown VIP) and exercise the drop path.
func GwLB(g *usecases.GwLB, n int, hitRatio float64, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := &Stream{pkts: make([]*packet.Packet, n)}
	for i := range s.pkts {
		src := rng.Uint32()
		var dst uint32
		var port uint16
		if rng.Float64() < hitRatio {
			svc := g.Services[rng.Intn(len(g.Services))]
			dst = svc.VIP
			port = svc.Port
		} else {
			dst = 0xDEAD0000 | uint32(rng.Intn(1<<16))
			port = uint16(1024 + rng.Intn(1<<14))
		}
		s.pkts[i] = packet.TCP4(
			0x020000000000|uint64(rng.Intn(1<<24)),
			0x02FFFFFF0000|uint64(i&0xFFFF),
			src, dst, uint16(1024+rng.Intn(1<<14)), port)
	}
	return s
}

// L3 generates routed traffic for an L3 table built by
// usecases.GenerateL3: destinations uniform over the installed /16 routes.
func L3(nPrefixes, n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := &Stream{pkts: make([]*packet.Packet, n)}
	for i := range s.pkts {
		route := uint32(rng.Intn(nPrefixes))
		dst := route<<16 | uint32(rng.Intn(1<<16))
		s.pkts[i] = packet.TCP4(2, 3, rng.Uint32(), dst, 1024, 80)
	}
	return s
}

// Wire serializes the stream to frames, reporting the average frame size —
// used to sanity-check the 64-byte-packet claim of the measurement setup.
func Wire(s *Stream) ([][]byte, float64) {
	frames := make([][]byte, s.Len())
	total := 0
	for i, p := range s.Packets() {
		frames[i] = p.Marshal(nil)
		total += len(frames[i])
	}
	return frames, float64(total) / float64(len(frames))
}

// Shards splits a frame trace into n disjoint round-robin shards, one per
// forwarding worker. Round-robin (rather than contiguous chunks) keeps
// every shard statistically identical to the full trace, so per-worker
// cache behavior matches the single-core measurement. Shards only
// reslice — frames are shared, not copied. n is clamped to [1, len(frames)].
func Shards(frames [][]byte, n int) [][][]byte {
	if n < 1 {
		n = 1
	}
	if n > len(frames) {
		n = len(frames)
	}
	out := make([][][]byte, n)
	per := (len(frames) + n - 1) / n
	for i := range out {
		out[i] = make([][]byte, 0, per)
	}
	for i, f := range frames {
		out[i%n] = append(out[i%n], f)
	}
	return out
}

// FrameStream is a pre-generated cyclic trace of wire frames for
// schema-mode workloads: the programs match fields the fixed Packet
// cannot carry, so the trace is frames, produced by marshalling
// FieldViews through the schema's parse-graph decoder.
type FrameStream struct {
	frames [][]byte
	pos    int
}

// Next returns the next frame (cycling).
func (s *FrameStream) Next() []byte {
	f := s.frames[s.pos]
	s.pos++
	if s.pos == len(s.frames) {
		s.pos = 0
	}
	return f
}

// Len returns the trace length.
func (s *FrameStream) Len() int { return len(s.frames) }

// Frames exposes the underlying trace (read-only use).
func (s *FrameStream) Frames() [][]byte { return s.frames }

// marshalViews renders a batch of prepared views to frames.
func marshalViews(views []*packet.FieldView) *FrameStream {
	s := &FrameStream{frames: make([][]byte, len(views))}
	for i, v := range views {
		s.frames[i] = v.Marshal(nil)
	}
	return s
}

// vxlanView prepares a full eth/ipv4/udp/vxlan/inner_eth view.
func vxlanView(dec *packet.Decoder, vni uint64, innerDst uint64, rng *rand.Rand) *packet.FieldView {
	v := dec.NewView()
	for _, h := range []string{"eth", "ipv4", "udp", "vxlan", "inner_eth"} {
		v.MarkPresentName(h)
	}
	v.SetName(packet.FieldEthDst, 0x020000000001)
	v.SetName(packet.FieldEthSrc, uint64(rng.Intn(1<<24))|0x020000000000)
	v.SetName(packet.FieldEthType, packet.EtherTypeIPv4)
	v.SetName("ip_verihl", 0x45)
	v.SetName("ip_ttl", 64)
	v.SetName("ip_proto", packet.ProtoUDP)
	v.SetName("ip_src", uint64(rng.Uint32()))
	v.SetName("ip_dst", uint64(rng.Uint32()))
	v.SetName("udp_src", uint64(1024+rng.Intn(1<<14)))
	v.SetName("udp_dst", packet.UDPPortVXLAN)
	v.SetName("vxlan_flags", 0x08)
	v.SetName(packet.FieldVXLANVNI, vni)
	v.SetName(packet.FieldInnerEthDst, innerDst)
	v.SetName(packet.FieldInnerEthSrc, 0x020000000000|uint64(rng.Intn(1<<24)))
	v.SetName("inner_eth_type", packet.EtherTypeIPv4)
	return v
}

// VXLANFrames generates overlay traffic for a VXLAN gateway: frames to
// random (tenant, host) pairs; 1-hitRatio of the frames carry an unknown
// VNI or MAC and exercise the drop path.
func VXLANFrames(g *usecases.VXLANGW, n int, hitRatio float64, seed int64) (*FrameStream, error) {
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	views := make([]*packet.FieldView, n)
	for i := range views {
		var vni, mac uint64
		if rng.Float64() < hitRatio {
			ten := g.Tenants[rng.Intn(len(g.Tenants))]
			h := ten.Hosts[rng.Intn(len(ten.Hosts))]
			vni, mac = uint64(ten.VNI), h.MAC
		} else {
			vni = uint64(0xF00000 | rng.Intn(1<<20))
			mac = 0x0E0000000000 | uint64(rng.Intn(1<<24))
		}
		views[i] = vxlanView(dec, vni, mac, rng)
	}
	return marshalViews(views), nil
}

// MPLSFrames generates labeled traffic for an LSR: frames carrying random
// installed (label, tc) pairs, the rest unknown labels.
func MPLSFrames(g *usecases.MPLSLSR, n int, hitRatio float64, seed int64) (*FrameStream, error) {
	dec, err := packet.BuiltinDecoder(packet.SchemaMPLS)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	views := make([]*packet.FieldView, n)
	for i := range views {
		var label, tc uint64
		if rng.Float64() < hitRatio {
			f := g.Fecs[rng.Intn(len(g.Fecs))]
			label = uint64(f.Label)
			tc = uint64(rng.Intn(len(f.Outs)))
		} else {
			label = uint64(0x80000 | rng.Intn(1<<19))
			tc = uint64(rng.Intn(8))
		}
		v := dec.NewView()
		for _, h := range []string{"eth", "mpls", "ipv4"} {
			v.MarkPresentName(h)
		}
		v.SetName(packet.FieldEthDst, 0x020000000001)
		v.SetName(packet.FieldEthSrc, 0x020000000000|uint64(rng.Intn(1<<24)))
		v.SetName(packet.FieldEthType, packet.EtherTypeMPLS)
		v.SetName(packet.FieldMPLSLabel, label)
		v.SetName(packet.FieldMPLSTC, tc)
		v.SetName(packet.FieldMPLSBoS, 1)
		v.SetName(packet.FieldMPLSTTL, 64)
		v.SetName("ip_verihl", 0x45)
		v.SetName("ip_ttl", 64)
		v.SetName("ip_proto", packet.ProtoTCP)
		v.SetName("ip_src", uint64(rng.Uint32()))
		v.SetName("ip_dst", uint64(rng.Uint32()))
		views[i] = v
	}
	return marshalViews(views), nil
}

// GTPUFrames generates tunneled traffic for a GTP-U gateway: frames to
// random installed (bearer, inner destination) pairs, the rest unknown
// TEIDs.
func GTPUFrames(g *usecases.GTPUGW, n int, hitRatio float64, seed int64) (*FrameStream, error) {
	dec, err := packet.BuiltinDecoder(packet.SchemaGTPU)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	views := make([]*packet.FieldView, n)
	for i := range views {
		var teid, innerDst uint64
		if rng.Float64() < hitRatio {
			br := g.Bearers[rng.Intn(len(g.Bearers))]
			d := br.Dests[rng.Intn(len(br.Dests))]
			teid, innerDst = uint64(br.TEID), uint64(d.InnerDst)
		} else {
			teid = uint64(0xDEAD0000 | rng.Intn(1<<16))
			innerDst = uint64(0x0B000000 | rng.Intn(1<<24))
		}
		v := dec.NewView()
		for _, h := range []string{"eth", "ipv4", "udp", "gtpu", "inner_ipv4"} {
			v.MarkPresentName(h)
		}
		v.SetName(packet.FieldEthDst, 0x020000000001)
		v.SetName(packet.FieldEthSrc, 0x020000000000|uint64(rng.Intn(1<<24)))
		v.SetName(packet.FieldEthType, packet.EtherTypeIPv4)
		v.SetName("ip_verihl", 0x45)
		v.SetName("ip_ttl", 64)
		v.SetName("ip_proto", packet.ProtoUDP)
		v.SetName("ip_src", uint64(rng.Uint32()))
		v.SetName("ip_dst", uint64(rng.Uint32()))
		v.SetName("udp_src", uint64(1024+rng.Intn(1<<14)))
		v.SetName("udp_dst", packet.UDPPortGTPU)
		v.SetName("gtpu_flags", 0x30)
		v.SetName("gtpu_type", packet.GTPMsgGPDU)
		v.SetName(packet.FieldGTPUTEID, teid)
		v.SetName("inner_ip_verihl", 0x45)
		v.SetName("inner_ip_ttl", 64)
		v.SetName("inner_ip_proto", packet.ProtoTCP)
		v.SetName("inner_ip_src", uint64(rng.Uint32()))
		v.SetName(packet.FieldInnerIPDst, innerDst)
		views[i] = v
	}
	return marshalViews(views), nil
}
