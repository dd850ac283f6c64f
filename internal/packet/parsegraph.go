package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Transition is one edge of a parse graph: when the state's select field
// equals Value, parsing continues at header Next.
type Transition struct {
	Value uint64 `json:"value"`
	Next  string `json:"next"`
}

// State describes what happens after one header is decoded. Select names
// the field steering the transition (a field of the current header or of
// one parsed earlier); an empty Select with a non-empty Default is an
// unconditional transition, and an empty Select with an empty Default
// accepts. When Select is set, a value matching no Transition falls back
// to Default ("" = accept).
type State struct {
	Select      string       `json:"select,omitempty"`
	Transitions []Transition `json:"transitions,omitempty"`
	Default     string       `json:"default,omitempty"`
}

// ParseGraph is a programmable parser over a header schema: states are
// headers, edges are keyed on a select field (EtherType, IP proto, UDP
// destination port, ...). Transitions must go forward in schema header
// order, so the graph is a DAG and every parse terminates. Compile turns
// the graph into a table-driven Decoder once; decoding is then a walk —
// bounds check → verify → record the header's offset → one select load
// and lookup per header — with no per-protocol code, and every other
// field is a fixed-offset load the view runs the first time it is read.
type ParseGraph struct {
	Schema *HeaderSchema    `json:"schema"`
	Start  string           `json:"start"`
	States map[string]State `json:"states,omitempty"`
}

// transEdge is one compiled transition.
type transEdge struct {
	v    uint64
	next int // state index
}

// decState is one compiled parser state.
type decState struct {
	hdr     int // header index in the schema
	size    int // header wire size, bytes
	first   int // first slot of the header
	nFields int
	selSlot int // slot steering the transition; -1 = no select
	trans   []transEdge
	def     int // fallback next state; -1 = accept
	verify  func([]byte) bool
	// errVerify is what ParseInto returns when verify rejects the header,
	// built once so that a malformed frame costs no allocation.
	errVerify *DecodeError
}

// slotLoad is the compiled extraction of one slot: a big-endian 8-byte
// window at byte offset off of the slot's header, shifted right and
// masked to the field width. The window is placed to end inside the
// header whenever the header has 8 bytes to give, so only a short header
// at the very tail of a frame takes the staged read in FieldView.extract.
type slotLoad struct {
	hdr   int
	off   int
	shift uint8 // wideLoad: the field's bits straddle more than 8 bytes
	mask  uint64
}

// wideLoad marks a slot whose bits span nine bytes (an unaligned field
// wider than 57 bits): no single 8-byte window holds it, so it is read
// through readBits.
const wideLoad = 0xff

// Decoder is a compiled parse graph: a state table the hot path walks
// per frame, plus one load per slot for the fields somebody then reads.
// Decoders are immutable after Compile and safe for concurrent use; each
// worker pairs one with its own reusable FieldView.
type Decoder struct {
	schema   *HeaderSchema
	graph    *ParseGraph
	states   []decState
	start    int
	slotMask []uint64 // per-slot presence-bit mask (1 << header index)
	loads    []slotLoad
	// errShort is returned for a frame shorter than the start header.
	errShort *DecodeError
	legacy   bool
}

// ErrFrameTooShort reports a frame shorter than the start header.
var ErrFrameTooShort = errors.New("packet: frame too short")

// Compile validates the graph and builds the table-driven decoder.
// Validation enforces: a known start header; select fields that exist in
// the schema and belong to the current header or an earlier one; and
// transitions that only move forward in schema header order (the DAG
// property that bounds every parse and makes declaration order the wire
// order for encoding).
func (g *ParseGraph) Compile() (*Decoder, error) {
	if g.Schema == nil {
		return nil, fmt.Errorf("packet: parse graph has no schema")
	}
	if err := g.Schema.init(); err != nil {
		return nil, err
	}
	s := g.Schema
	startIdx := s.HeaderIndex(g.Start)
	if startIdx < 0 {
		return nil, fmt.Errorf("packet: parse graph for %s: unknown start header %q", s.Name, g.Start)
	}
	d := &Decoder{
		schema:   s,
		graph:    g,
		states:   make([]decState, len(s.Headers)),
		start:    startIdx,
		slotMask: make([]uint64, len(s.slots)),
		loads:    make([]slotLoad, len(s.slots)),
		legacy:   s.legacy,
	}
	d.errShort = &DecodeError{Reason: ReasonTruncated,
		Err: fmt.Errorf("%w: %s header needs %d bytes", ErrFrameTooShort, g.Start, s.headerBytes(startIdx))}
	for i, sl := range s.slots {
		d.slotMask[i] = 1 << uint(sl.hdr)
		d.loads[i] = compileLoad(sl, s.headerBytes(sl.hdr))
	}
	// One decoder state per header; headers without an entry in States
	// accept after decoding.
	firstSlot := make([]int, len(s.Headers))
	nFields := make([]int, len(s.Headers))
	for i, sl := range s.slots {
		if nFields[sl.hdr] == 0 {
			firstSlot[sl.hdr] = i
		}
		nFields[sl.hdr]++
	}
	for hi, h := range s.Headers {
		st := decState{
			hdr: hi, size: s.headerBytes(hi),
			first: firstSlot[hi], nFields: nFields[hi],
			selSlot: -1, def: -1, verify: h.Verify,
		}
		if h.Verify != nil {
			st.errVerify = &DecodeError{Reason: ReasonBadHeader,
				Err: fmt.Errorf("packet: header %s failed verification", h.Name)}
		}
		gs, ok := g.States[h.Name]
		if ok {
			if gs.Select != "" {
				sel := s.Slot(gs.Select)
				if sel < 0 {
					return nil, fmt.Errorf("packet: parse graph for %s: state %s selects unknown field %q", s.Name, h.Name, gs.Select)
				}
				if s.slots[sel].hdr > hi {
					return nil, fmt.Errorf("packet: parse graph for %s: state %s selects %q from a later header", s.Name, h.Name, gs.Select)
				}
				st.selSlot = sel
			} else if len(gs.Transitions) > 0 {
				return nil, fmt.Errorf("packet: parse graph for %s: state %s has transitions but no select field", s.Name, h.Name)
			}
			next := func(name string) (int, error) {
				ni := s.HeaderIndex(name)
				if ni < 0 {
					return 0, fmt.Errorf("packet: parse graph for %s: state %s transitions to unknown header %q", s.Name, h.Name, name)
				}
				if ni <= hi {
					return 0, fmt.Errorf("packet: parse graph for %s: state %s transitions backward to %q", s.Name, h.Name, name)
				}
				return ni, nil
			}
			for _, tr := range gs.Transitions {
				ni, err := next(tr.Next)
				if err != nil {
					return nil, err
				}
				st.trans = append(st.trans, transEdge{v: tr.Value, next: ni})
			}
			if gs.Default != "" {
				ni, err := next(gs.Default)
				if err != nil {
					return nil, err
				}
				st.def = ni
			}
		}
		d.states[hi] = st
	}
	return d, nil
}

// Schema returns the decoder's header schema.
func (d *Decoder) Schema() *HeaderSchema { return d.schema }

// Graph returns the parse graph the decoder was compiled from.
func (d *Decoder) Graph() *ParseGraph { return d.graph }

// compileLoad places the 8-byte window of one slot.
func compileLoad(sl slotInfo, hdrBytes int) slotLoad {
	first, bit := sl.bitOff>>3, sl.bitOff&7
	ld := slotLoad{hdr: sl.hdr, off: first, mask: widthMask(sl.width)}
	if bit+int(sl.width) > 64 {
		ld.shift = wideLoad
		return ld
	}
	if over := first + 8 - hdrBytes; over > 0 {
		if over > first {
			over = first
		}
		ld.off -= over
		bit += 8 * over
	}
	ld.shift = uint8(64 - bit - int(sl.width))
	return ld
}

// NewView allocates a FieldView sized for the decoder's schema. Views are
// reused across ParseInto calls; create one per worker. A fresh view holds
// no frame: every slot reads zero once its header is marked present.
func (d *Decoder) NewView() *FieldView {
	return &FieldView{
		dec:    d,
		cells:  make([]cell, len(d.schema.slots)),
		hdrOff: make([]int, len(d.schema.Headers)),
	}
}

// ParseInto decodes a frame into v, reusing its storage. The frame must
// cover the start header; a frame truncated mid-graph stops cleanly with
// the remaining bytes as payload (matching the lenient L3/L4 handling of
// the legacy codec).
//
// On a generic schema ParseInto only walks the graph: per header a
// bounds check, the Verify hook, the header's byte offset and presence
// bit recorded in the view, and a load of the one field that steers the
// transition. No other field is extracted; the view keeps the frame and
// Get runs a slot's load the first time the slot is read. The view and
// its payload therefore alias the frame, and slot reads are valid only
// while the frame bytes are unchanged (see FieldView). The default schema
// fills its slots eagerly (parseDefault).
func (d *Decoder) ParseInto(v *FieldView, frame []byte) error {
	if v.dec != d {
		return fmt.Errorf("packet: view belongs to schema %s, decoder is %s", v.dec.schema.Name, d.schema.Name)
	}
	if d.legacy {
		return v.parseDefault(frame)
	}
	v.present = 0
	v.unknownNext = false
	v.frame = frame
	clear(v.cells)
	cur := d.start
	if len(frame) < d.states[cur].size {
		return d.errShort
	}
	off := 0
	for cur >= 0 {
		st := &d.states[cur]
		end := off + st.size
		if end > len(frame) {
			break // truncated mid-graph: accept with remainder as payload
		}
		if st.verify != nil && !st.verify(frame[off:end]) {
			return st.errVerify
		}
		v.hdrOff[st.hdr] = off
		v.present |= 1 << uint(st.hdr)
		off = end
		if st.selSlot < 0 {
			cur = st.def
			continue
		}
		// A select field of an earlier header the walk skipped steers as 0.
		sv, _ := v.Get(st.selSlot)
		next := st.def
		matched := false
		for _, e := range st.trans {
			if e.v == sv {
				next = e.next
				matched = true
				break
			}
		}
		if !matched && next < 0 && len(st.trans) > 0 {
			// The select value named a next header the graph does not know
			// and no default continued the walk: an accept, but a flagged
			// one, so ingest arenas can count unknown next-headers.
			v.unknownNext = true
		}
		cur = next
	}
	v.payload = frame[off:]
	return nil
}

// Parse is the allocating convenience form of ParseInto.
func (d *Decoder) Parse(frame []byte) (*FieldView, error) {
	v := d.NewView()
	if err := d.ParseInto(v, frame); err != nil {
		return nil, err
	}
	return v, nil
}

// Marshal encodes a view back to wire bytes, appending to buf: every
// present header in schema order, bit-packed, then the payload. The
// generic codec does not pad or fix up length/checksum fields — a field
// holding a length is round-tripped as the value in its slot — so
// Parse(Marshal(v)) == v whenever the select-field values in v steer the
// graph through v's present headers.
func (d *Decoder) Marshal(v *FieldView, buf []byte) []byte {
	if d.legacy {
		return d.legacyMarshal(v, buf)
	}
	v.loadAll()
	n := len(v.payload)
	for hi := range d.states {
		if v.present&(1<<uint(hi)) != 0 {
			n += d.states[hi].size
		}
	}
	buf = slices.Grow(buf, n)
	for hi := range d.states {
		if v.present&(1<<uint(hi)) == 0 {
			continue
		}
		st := &d.states[hi]
		at := len(buf)
		buf = buf[:at+st.size]
		hb := buf[at:]
		clear(hb)
		for i := st.first; i < st.first+st.nFields; i++ {
			sl := &d.schema.slots[i]
			writeBits(hb, sl.bitOff, sl.width, v.cells[i].val)
		}
	}
	return append(buf, v.payload...)
}

// parseDefault is the default schema's decode path: the hand-written
// Ethernet/VLAN/IPv4/L4 decoder (VLAN untagging, IHL options, checksum
// verification, TotalLen payload trim) writing every cell directly —
// ready, or empty for an absent header — so a default-schema view never
// retains a frame. Packet.ParseInto is the same decoder over the struct,
// kept as the oracle this one is fuzzed against
// (FuzzDefaultDecoderMatchesCodec): both accept and reject the same frames
// and agree on every field, presence bit and payload.
func (v *FieldView) parseDefault(b []byte) error {
	c := v.cells[:NumFieldIDs]
	v.frame = nil
	if len(b) < EthHeaderLen {
		return v.reject(errShortEth)
	}
	et := binary.BigEndian.Uint16(b[12:14])
	off := EthHeaderLen
	present := uint64(1 << defaultHdrEth)
	c[IDVLAN] = cell{}
	if et == EtherTypeVLAN {
		if len(b) < off+VLANTagLen {
			return v.reject(errShortVLAN)
		}
		c[IDVLAN] = cell{uint64(binary.BigEndian.Uint16(b[14:16]) & 0x0FFF), true}
		present |= 1 << defaultHdrVLAN
		et = binary.BigEndian.Uint16(b[16:18])
		off += VLANTagLen
	}
	c[IDEthDst] = cell{mac48(b[0:6]), true}
	c[IDEthSrc] = cell{mac48(b[6:12]), true}
	c[IDEthType] = cell{uint64(et), true}
	c[IDIPSrc], c[IDIPDst], c[IDIPProto], c[IDTTL] = cell{}, cell{}, cell{}, cell{}
	c[IDTCPSrc], c[IDTCPDst] = cell{}, cell{}
	v.present = present
	// The default graph's unknown next-headers: a non-IPv4 EtherType, or
	// an IPv4 protocol with no L4 state (truncation-stopped parses are not
	// "unknown" — the steering value was fine).
	v.unknownNext = et != EtherTypeIPv4
	if et != EtherTypeIPv4 || len(b) < off+IPv4HeaderLen {
		v.payload = b[off:]
		return nil
	}
	ip := b[off:]
	ihl := int(ip[0]&0x0F) * 4
	if ip[0]>>4 != 4 || ihl < IPv4HeaderLen || len(ip) < ihl {
		return v.reject(errBadIPv4)
	}
	if Checksum(ip[:ihl]) != 0 {
		return v.reject(errBadIPv4Csum)
	}
	proto := ip[9]
	c[IDIPSrc] = cell{uint64(binary.BigEndian.Uint32(ip[12:16])), true}
	c[IDIPDst] = cell{uint64(binary.BigEndian.Uint32(ip[16:20])), true}
	c[IDIPProto] = cell{uint64(proto), true}
	c[IDTTL] = cell{uint64(ip[8]), true}
	present |= 1 << defaultHdrIPv4

	// The IP datagram ends at TotalLen; anything beyond is Ethernet
	// padding (minimum frame size), not payload.
	end := off + int(binary.BigEndian.Uint16(ip[2:4]))
	if end < off+ihl || end > len(b) {
		end = len(b)
	}
	off += ihl
	if proto != ProtoTCP && proto != ProtoUDP {
		v.unknownNext = true
	} else if end >= off+4 {
		c[IDTCPSrc] = cell{uint64(binary.BigEndian.Uint16(b[off : off+2])), true}
		c[IDTCPDst] = cell{uint64(binary.BigEndian.Uint16(b[off+2 : off+4])), true}
		present |= 1 << defaultHdrL4
		l4len := TCPHeaderLen
		if proto == ProtoUDP {
			l4len = UDPHeaderLen
		}
		if end >= off+l4len {
			off += l4len
		} else {
			off = end
		}
	}
	v.present = present
	v.payload = b[off:end]
	return nil
}

// reject empties the view and returns the decode error: a rejected frame
// leaves no header present and no cell ready.
func (v *FieldView) reject(err error) error {
	clear(v.cells)
	v.present = 0
	v.unknownNext = false
	v.payload = nil
	return err
}

// legacyMarshal rebuilds a Packet from the view and runs the hand-written
// encoder (length/checksum recompute, minimum-frame padding).
func (d *Decoder) legacyMarshal(v *FieldView, buf []byte) []byte {
	var p Packet
	v.StorePacket(&p)
	if p.HasIPv4 {
		p.IPVerIHL = 0x45
	}
	p.Payload = v.payload
	return p.Marshal(buf)
}
