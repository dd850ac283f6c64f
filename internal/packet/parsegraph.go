package packet

import (
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
	n := len(d.schema.slots)
	v := &FieldView{
		dec:    d,
		slots:  make([]uint64, n),
		ready:  make([]bool, n),
		hdrOff: make([]int, len(d.schema.Headers)),
	}
	if d.legacy {
		v.lp = &Packet{}
	}
	return v
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
// fills its slots eagerly from the hand-written codec.
func (d *Decoder) ParseInto(v *FieldView, frame []byte) error {
	if v.dec != d {
		return fmt.Errorf("packet: view belongs to schema %s, decoder is %s", v.dec.schema.Name, d.schema.Name)
	}
	if d.legacy {
		return d.legacyParse(v, frame)
	}
	v.present = 0
	v.unknownNext = false
	v.frame = frame
	clear(v.ready)
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
			writeBits(hb, sl.bitOff, sl.width, v.slots[i])
		}
	}
	return append(buf, v.payload...)
}

// legacyParse is the default schema's decode path: the hand-written
// Packet codec runs unchanged (VLAN untagging, IHL options, checksum
// verification, TotalLen payload trim), then the canonical fields are
// copied into slots — eagerly, each marked ready or absent, so a
// default-schema view never retains a frame. Bit-identical to pre-schema
// behavior by construction.
func (d *Decoder) legacyParse(v *FieldView, frame []byte) error {
	if err := v.lp.ParseInto(frame); err != nil {
		return err
	}
	p := v.lp
	// The legacy graph's unknown next-headers: a non-IPv4 EtherType, or an
	// IPv4 protocol the codec has no L4 state for (truncation-stopped
	// parses are not "unknown" — the steering value was fine).
	v.unknownNext = p.EthType != EtherTypeIPv4 ||
		(p.HasIPv4 && !p.HasL4 && p.Proto != ProtoTCP && p.Proto != ProtoUDP)
	v.present = 1 << legacyHdrEth
	s, r := v.slots, v.ready
	s[IDEthDst], s[IDEthSrc], s[IDEthType] = p.EthDst, p.EthSrc, uint64(p.EthType)
	r[IDEthDst], r[IDEthSrc], r[IDEthType] = true, true, true
	// An absent layer's Packet fields are zero (ParseInto starts from the
	// zero Packet), so the copies below zero the slots of absent headers.
	if p.HasVLAN {
		v.present |= 1 << legacyHdrVLAN
	}
	s[IDVLAN], r[IDVLAN] = uint64(p.VLANID), p.HasVLAN
	if p.HasIPv4 {
		v.present |= 1 << legacyHdrIPv4
	}
	s[IDIPSrc], s[IDIPDst], s[IDIPProto], s[IDTTL] = uint64(p.IPSrc), uint64(p.IPDst), uint64(p.Proto), uint64(p.TTL)
	r[IDIPSrc], r[IDIPDst], r[IDIPProto], r[IDTTL] = p.HasIPv4, p.HasIPv4, p.HasIPv4, p.HasIPv4
	if p.HasL4 {
		v.present |= 1 << legacyHdrL4
	}
	s[IDTCPSrc], s[IDTCPDst] = uint64(p.SrcPort), uint64(p.DstPort)
	r[IDTCPSrc], r[IDTCPDst] = p.HasL4, p.HasL4
	v.payload = p.Payload
	return nil
}

// legacyMarshal rebuilds the scratch Packet from the view and runs the
// hand-written encoder (length/checksum recompute, minimum-frame
// padding).
func (d *Decoder) legacyMarshal(v *FieldView, buf []byte) []byte {
	p := v.lp
	*p = Packet{
		EthDst:  v.slots[IDEthDst],
		EthSrc:  v.slots[IDEthSrc],
		EthType: uint16(v.slots[IDEthType]),
		Payload: v.payload,
	}
	if v.present&(1<<legacyHdrVLAN) != 0 {
		p.HasVLAN = true
		p.VLANID = uint16(v.slots[IDVLAN])
	}
	if v.present&(1<<legacyHdrIPv4) != 0 {
		p.HasIPv4 = true
		p.IPVerIHL = 0x45
		p.TTL = uint8(v.slots[IDTTL])
		p.Proto = uint8(v.slots[IDIPProto])
		p.IPSrc = uint32(v.slots[IDIPSrc])
		p.IPDst = uint32(v.slots[IDIPDst])
	}
	if v.present&(1<<legacyHdrL4) != 0 {
		p.HasL4 = true
		p.SrcPort = uint16(v.slots[IDTCPSrc])
		p.DstPort = uint16(v.slots[IDTCPDst])
	}
	return p.Marshal(buf)
}
