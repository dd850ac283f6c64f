package packet

import (
	"manorm/internal/mat"
)

// Canonical match-field names shared between the match-action model, the
// dataplane and the traffic generators.
const (
	FieldEthDst  = "eth_dst"
	FieldEthSrc  = "eth_src"
	FieldEthType = "eth_type"
	FieldVLAN    = "vlan"
	FieldIPSrc   = "ip_src"
	FieldIPDst   = "ip_dst"
	FieldIPProto = "ip_proto"
	FieldTTL     = "ip_ttl"
	FieldTCPSrc  = "tcp_src"
	FieldTCPDst  = "tcp_dst"
)

// Field reads a header field by canonical name. The second result is false
// when the packet does not carry the field's layer or the name is unknown.
func (p *Packet) Field(name string) (uint64, bool) {
	switch name {
	case FieldEthDst:
		return p.EthDst, true
	case FieldEthSrc:
		return p.EthSrc, true
	case FieldEthType:
		return uint64(p.EthType), true
	case FieldVLAN:
		return uint64(p.VLANID), p.HasVLAN
	case FieldIPSrc:
		return uint64(p.IPSrc), p.HasIPv4
	case FieldIPDst:
		return uint64(p.IPDst), p.HasIPv4
	case FieldIPProto:
		return uint64(p.Proto), p.HasIPv4
	case FieldTTL:
		return uint64(p.TTL), p.HasIPv4
	case FieldTCPSrc:
		return uint64(p.SrcPort), p.HasL4
	case FieldTCPDst:
		return uint64(p.DstPort), p.HasL4
	default:
		return 0, false
	}
}

// SetField writes a header field by canonical name, reporting whether the
// name was known and the layer present.
func (p *Packet) SetField(name string, v uint64) bool {
	switch name {
	case FieldEthDst:
		p.EthDst = v & (1<<48 - 1)
	case FieldEthSrc:
		p.EthSrc = v & (1<<48 - 1)
	case FieldEthType:
		p.EthType = uint16(v)
	case FieldVLAN:
		if !p.HasVLAN {
			p.HasVLAN = true
		}
		p.VLANID = uint16(v) & 0x0FFF
	case FieldIPSrc:
		if !p.HasIPv4 {
			return false
		}
		p.IPSrc = uint32(v)
	case FieldIPDst:
		if !p.HasIPv4 {
			return false
		}
		p.IPDst = uint32(v)
	case FieldIPProto:
		if !p.HasIPv4 {
			return false
		}
		p.Proto = uint8(v)
	case FieldTTL:
		if !p.HasIPv4 {
			return false
		}
		p.TTL = uint8(v)
	case FieldTCPSrc:
		if !p.HasL4 {
			return false
		}
		p.SrcPort = uint16(v)
	case FieldTCPDst:
		if !p.HasL4 {
			return false
		}
		p.DstPort = uint16(v)
	default:
		return false
	}
	return true
}

// Record converts the packet's parsed headers into the attribute-record
// view evaluated by the relational semantics (internal/mat). Only fields of
// present layers appear.
func (p *Packet) Record() mat.Record {
	r := mat.Record{
		FieldEthDst:  p.EthDst,
		FieldEthSrc:  p.EthSrc,
		FieldEthType: uint64(p.EthType),
	}
	if p.HasVLAN {
		r[FieldVLAN] = uint64(p.VLANID)
	}
	if p.HasIPv4 {
		r[FieldIPSrc] = uint64(p.IPSrc)
		r[FieldIPDst] = uint64(p.IPDst)
		r[FieldIPProto] = uint64(p.Proto)
		r[FieldTTL] = uint64(p.TTL)
	}
	if p.HasL4 {
		r[FieldTCPSrc] = uint64(p.SrcPort)
		r[FieldTCPDst] = uint64(p.DstPort)
	}
	return r
}

// TCP4 builds a minimal Ethernet/IPv4/TCP packet with the given addressing
// tuple — the 64-byte test traffic of the paper's evaluation.
func TCP4(ethSrc, ethDst uint64, ipSrc, ipDst uint32, srcPort, dstPort uint16) *Packet {
	return &Packet{
		EthDst:  ethDst & (1<<48 - 1),
		EthSrc:  ethSrc & (1<<48 - 1),
		EthType: EtherTypeIPv4,
		HasIPv4: true,
		TTL:     64,
		Proto:   ProtoTCP,
		IPSrc:   ipSrc,
		IPDst:   ipDst,
		HasL4:   true,
		SrcPort: srcPort,
		DstPort: dstPort,
	}
}
