package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeVLAN = 0x8100
	EtherTypeARP  = 0x0806
)

// IP protocol numbers understood by the parser.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Header sizes in bytes.
const (
	EthHeaderLen  = 14
	VLANTagLen    = 4
	IPv4HeaderLen = 20 // without options
	TCPHeaderLen  = 20 // without options
	UDPHeaderLen  = 8
	// MinFrameLen is the minimum Ethernet frame size (without FCS); short
	// frames are padded on Marshal.
	MinFrameLen = 60
)

// Packet is a decoded Ethernet/IPv4/L4 packet. Zero-valued fields of
// layers beyond ParsedLayers are meaningless.
//
// Deprecated: nothing forwards Packets — every datapath runs on
// FieldViews. Packet keeps three roles: its codec (ParseInto, Marshal) is
// the oracle the default schema's decoder is tested against; trafficgen
// builds default-schema frames with it; and the Packet entry points of
// the dataplane and switch models (adapters over the view path via
// LoadPacket/StorePacket) serve the benchmark's probes.
type Packet struct {
	// Ethernet.
	EthDst  uint64 // 48-bit MAC
	EthSrc  uint64 // 48-bit MAC
	EthType uint16 // inner EtherType when a VLAN tag is present

	// 802.1Q.
	HasVLAN  bool
	VLANID   uint16 // 12 bits
	VLANPrio uint8  // 3 bits

	// IPv4.
	HasIPv4  bool
	IPVerIHL uint8 // version + header length nibble (0x45 without options)
	TOS      uint8
	TotalLen uint16
	IPID     uint16
	Flags    uint16 // flags + fragment offset
	TTL      uint8
	Proto    uint8
	IPSrc    uint32
	IPDst    uint32

	// TCP/UDP (ports only; the simulators do not model L4 state).
	HasL4   bool
	SrcPort uint16
	DstPort uint16

	// Payload is everything after the parsed headers.
	Payload []byte
}

// The hand-written codec's decode failures, built once (see DecodeError).
var (
	errShortEth = &DecodeError{Reason: ReasonTruncated,
		Err: fmt.Errorf("%w: Ethernet header needs %d bytes", ErrFrameTooShort, EthHeaderLen)}
	errShortVLAN   = &DecodeError{Reason: ReasonTruncated, Err: errors.New("packet: truncated VLAN tag")}
	errBadIPv4     = &DecodeError{Reason: ReasonBadHeader, Err: errors.New("packet: bad IPv4 header")}
	errBadIPv4Csum = &DecodeError{Reason: ReasonBadHeader, Err: errors.New("packet: bad IPv4 checksum")}
)

// Parse decodes an Ethernet frame. It accepts truncated L3/L4 (leaving the
// corresponding Has* flags false) but rejects frames shorter than an
// Ethernet header.
func Parse(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := p.ParseInto(b); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto decodes into an existing Packet, avoiding an allocation. The
// previous contents are overwritten. It is the oracle of the default
// schema's decoder (FieldView.parseDefault): the two must accept, reject
// and decode every frame alike.
func (p *Packet) ParseInto(b []byte) error {
	*p = Packet{}
	if len(b) < EthHeaderLen {
		return errShortEth
	}
	p.EthDst = mac48(b[0:6])
	p.EthSrc = mac48(b[6:12])
	et := binary.BigEndian.Uint16(b[12:14])
	off := EthHeaderLen
	if et == EtherTypeVLAN {
		if len(b) < off+VLANTagLen {
			return errShortVLAN
		}
		tci := binary.BigEndian.Uint16(b[14:16])
		p.HasVLAN = true
		p.VLANPrio = uint8(tci >> 13)
		p.VLANID = tci & 0x0FFF
		et = binary.BigEndian.Uint16(b[16:18])
		off += VLANTagLen
	}
	p.EthType = et

	if et != EtherTypeIPv4 || len(b) < off+IPv4HeaderLen {
		p.Payload = b[off:]
		return nil
	}
	ip := b[off:]
	ihl := int(ip[0]&0x0F) * 4
	if ip[0]>>4 != 4 || ihl < IPv4HeaderLen || len(ip) < ihl {
		return errBadIPv4
	}
	p.HasIPv4 = true
	p.IPVerIHL = ip[0]
	p.TOS = ip[1]
	p.TotalLen = binary.BigEndian.Uint16(ip[2:4])
	p.IPID = binary.BigEndian.Uint16(ip[4:6])
	p.Flags = binary.BigEndian.Uint16(ip[6:8])
	p.TTL = ip[8]
	p.Proto = ip[9]
	if Checksum(ip[:ihl]) != 0 {
		return errBadIPv4Csum
	}
	p.IPSrc = binary.BigEndian.Uint32(ip[12:16])
	p.IPDst = binary.BigEndian.Uint32(ip[16:20])

	// The IP datagram ends at TotalLen; anything beyond is Ethernet
	// padding (minimum frame size), not payload.
	end := off + int(p.TotalLen)
	if end < off+ihl || end > len(b) {
		end = len(b)
	}
	off += ihl

	if (p.Proto == ProtoTCP || p.Proto == ProtoUDP) && end >= off+4 {
		p.HasL4 = true
		p.SrcPort = binary.BigEndian.Uint16(b[off : off+2])
		p.DstPort = binary.BigEndian.Uint16(b[off+2 : off+4])
		l4len := TCPHeaderLen
		if p.Proto == ProtoUDP {
			l4len = UDPHeaderLen
		}
		if end >= off+l4len {
			off += l4len
		} else {
			off = end
		}
	}
	p.Payload = b[off:end]
	return nil
}

// LoadPacket fills a view of the default schema from p: a header is
// present when p carries its layer, and its slots hold p's fields. The
// payload aliases p.Payload. It panics on a view of any other schema.
func (v *FieldView) LoadPacket(p *Packet) {
	if !v.dec.legacy {
		panic("packet: LoadPacket on a view of schema " + v.dec.schema.Name)
	}
	c := v.cells[:NumFieldIDs]
	clear(c)
	v.frame, v.unknownNext = nil, false
	v.present = 1 << defaultHdrEth
	c[IDEthDst] = cell{p.EthDst, true}
	c[IDEthSrc] = cell{p.EthSrc, true}
	c[IDEthType] = cell{uint64(p.EthType), true}
	if p.HasVLAN {
		v.present |= 1 << defaultHdrVLAN
		c[IDVLAN] = cell{uint64(p.VLANID), true}
	}
	if p.HasIPv4 {
		v.present |= 1 << defaultHdrIPv4
		c[IDIPSrc] = cell{uint64(p.IPSrc), true}
		c[IDIPDst] = cell{uint64(p.IPDst), true}
		c[IDIPProto] = cell{uint64(p.Proto), true}
		c[IDTTL] = cell{uint64(p.TTL), true}
	}
	if p.HasL4 {
		v.present |= 1 << defaultHdrL4
		c[IDTCPSrc] = cell{uint64(p.SrcPort), true}
		c[IDTCPDst] = cell{uint64(p.DstPort), true}
	}
	v.payload = p.Payload
}

// StorePacket writes a default-schema view back into p: the layer flags
// follow the view's presence, and the fields of every present layer take
// the view's slot values. Fields of absent layers and those the schema
// does not carry (VLAN priority, TOS, ...) are left as they were. It
// panics on a view of any other schema.
func (v *FieldView) StorePacket(p *Packet) {
	if !v.dec.legacy {
		panic("packet: StorePacket on a view of schema " + v.dec.schema.Name)
	}
	c := v.cells[:NumFieldIDs]
	p.EthDst, p.EthSrc, p.EthType = c[IDEthDst].val, c[IDEthSrc].val, uint16(c[IDEthType].val)
	p.HasVLAN = v.present&(1<<defaultHdrVLAN) != 0
	if p.HasVLAN {
		p.VLANID = uint16(c[IDVLAN].val)
	}
	p.HasIPv4 = v.present&(1<<defaultHdrIPv4) != 0
	if p.HasIPv4 {
		p.IPSrc, p.IPDst = uint32(c[IDIPSrc].val), uint32(c[IDIPDst].val)
		p.Proto, p.TTL = uint8(c[IDIPProto].val), uint8(c[IDTTL].val)
	}
	p.HasL4 = v.present&(1<<defaultHdrL4) != 0
	if p.HasL4 {
		p.SrcPort, p.DstPort = uint16(c[IDTCPSrc].val), uint16(c[IDTCPDst].val)
	}
}

// Marshal serializes the packet into buf (allocating when nil or too
// small), recomputing lengths and the IPv4 checksum and padding to the
// minimum frame size. It returns the frame bytes.
func (p *Packet) Marshal(buf []byte) []byte {
	n := EthHeaderLen
	if p.HasVLAN {
		n += VLANTagLen
	}
	if p.HasIPv4 {
		n += IPv4HeaderLen
		if p.HasL4 {
			if p.Proto == ProtoUDP {
				n += UDPHeaderLen
			} else {
				n += TCPHeaderLen
			}
		}
	}
	l4Start := n
	n += len(p.Payload)
	frame := n
	if frame < MinFrameLen {
		frame = MinFrameLen
	}
	if cap(buf) < frame {
		buf = make([]byte, frame)
	}
	buf = buf[:frame]
	for i := n; i < frame; i++ {
		buf[i] = 0
	}

	putMAC(buf[0:6], p.EthDst)
	putMAC(buf[6:12], p.EthSrc)
	off := 12
	if p.HasVLAN {
		binary.BigEndian.PutUint16(buf[off:], EtherTypeVLAN)
		binary.BigEndian.PutUint16(buf[off+2:], uint16(p.VLANPrio)<<13|p.VLANID&0x0FFF)
		off += 4
	}
	binary.BigEndian.PutUint16(buf[off:], p.EthType)
	off += 2

	if p.HasIPv4 {
		ip := buf[off:]
		verIHL := p.IPVerIHL
		if verIHL == 0 {
			verIHL = 0x45
		}
		ip[0] = verIHL
		ip[1] = p.TOS
		totalLen := n - off
		binary.BigEndian.PutUint16(ip[2:], uint16(totalLen))
		binary.BigEndian.PutUint16(ip[4:], p.IPID)
		binary.BigEndian.PutUint16(ip[6:], p.Flags)
		ip[8] = p.TTL
		ip[9] = p.Proto
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint32(ip[12:], p.IPSrc)
		binary.BigEndian.PutUint32(ip[16:], p.IPDst)
		cs := Checksum(ip[:IPv4HeaderLen])
		binary.BigEndian.PutUint16(ip[10:], cs)
		off += IPv4HeaderLen

		if p.HasL4 {
			binary.BigEndian.PutUint16(buf[off:], p.SrcPort)
			binary.BigEndian.PutUint16(buf[off+2:], p.DstPort)
			if p.Proto == ProtoUDP {
				binary.BigEndian.PutUint16(buf[off+4:], uint16(UDPHeaderLen+len(p.Payload)))
				binary.BigEndian.PutUint16(buf[off+6:], 0) // checksum optional in UDP/IPv4
				off += UDPHeaderLen
			} else {
				for i := off + 4; i < off+TCPHeaderLen; i++ {
					buf[i] = 0
				}
				buf[off+12] = 5 << 4 // data offset
				off += TCPHeaderLen
			}
		}
	}
	copy(buf[l4Start:], p.Payload)
	return buf
}

// Checksum computes the Internet checksum (RFC 1071) of b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

func mac48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

func putMAC(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}
