package packet

import (
	"encoding/binary"
	"fmt"

	"manorm/internal/mat"
)

// FieldSpec describes one named field of a header: a bit width and the
// canonical attribute name the match-action model refers to it by.
type FieldSpec struct {
	Name  string `json:"name"`
	Width uint8  `json:"width"` // bits, 1..64
}

// Header is one protocol header: an ordered list of fields laid out
// bit-packed, big-endian, in declaration order. The total width must be a
// whole number of bytes (the generic codec reads and writes whole
// headers); the built-in default schema is exempt because it rides the
// hand-written Ethernet/VLAN/IPv4/L4 decoder and encoder instead.
type Header struct {
	Name   string      `json:"name"`
	Fields []FieldSpec `json:"fields"`
	// Verify, when non-nil, validates the raw header bytes during decode
	// (e.g. a checksum); returning false rejects the frame. Hooks are not
	// serialized — schemas that travel through JSON (the fuzzing corpus)
	// must not rely on them.
	Verify func(b []byte) bool `json:"-"`
}

// Bits returns the header's total width in bits.
func (h Header) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += int(f.Width)
	}
	return n
}

// slotInfo is the flattened location of one field: its owning header and
// bit offset within it.
type slotInfo struct {
	name   string
	width  uint8
	hdr    int
	bitOff int
}

// HeaderSchema is a named, ordered set of headers whose fields flatten
// into a dense slot space: slot i is the i-th field in header-then-field
// declaration order. Datapaths resolve attribute names to slots once at
// compile time and read packet state as FieldView.Get(slot) on the hot
// path.
//
// Header order is wire order: a parse graph over the schema may only
// transition forward (a DAG in declaration order), and the generic
// encoder emits present headers in declaration order.
type HeaderSchema struct {
	Name    string   `json:"name"`
	Headers []Header `json:"headers"`

	// legacy marks the built-in default schema, which decodes through a
	// hand-written decoder and encodes through the Packet codec
	// (bit-identical to the pre-schema stack) rather than the generic
	// bit-packed codec.
	legacy bool

	slots    []slotInfo
	index    map[string]int
	hdrIndex map[string]int
}

// NewHeaderSchema builds and validates a schema.
func NewHeaderSchema(name string, headers ...Header) (*HeaderSchema, error) {
	s := &HeaderSchema{Name: name, Headers: headers}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s, nil
}

// init computes the slot layout, validating the schema. It is idempotent,
// so schemas arriving through JSON are initialized on first use.
func (s *HeaderSchema) init() error {
	if s.index != nil {
		return nil
	}
	if s.Name == "" {
		return fmt.Errorf("packet: schema with empty name")
	}
	if len(s.Headers) == 0 {
		return fmt.Errorf("packet: schema %s has no headers", s.Name)
	}
	if len(s.Headers) > 64 {
		return fmt.Errorf("packet: schema %s has %d headers; the presence mask supports 64", s.Name, len(s.Headers))
	}
	index := make(map[string]int)
	hdrIndex := make(map[string]int, len(s.Headers))
	var slots []slotInfo
	for hi, h := range s.Headers {
		if h.Name == "" {
			return fmt.Errorf("packet: schema %s: header %d has empty name", s.Name, hi)
		}
		if _, dup := hdrIndex[h.Name]; dup {
			return fmt.Errorf("packet: schema %s: duplicate header %q", s.Name, h.Name)
		}
		hdrIndex[h.Name] = hi
		if len(h.Fields) == 0 {
			return fmt.Errorf("packet: schema %s: header %s has no fields", s.Name, h.Name)
		}
		off := 0
		for _, f := range h.Fields {
			if f.Name == "" {
				return fmt.Errorf("packet: schema %s: header %s has a field with empty name", s.Name, h.Name)
			}
			if f.Width == 0 || f.Width > 64 {
				return fmt.Errorf("packet: schema %s: field %s has invalid width %d", s.Name, f.Name, f.Width)
			}
			if _, dup := index[f.Name]; dup {
				return fmt.Errorf("packet: schema %s: duplicate field %q", s.Name, f.Name)
			}
			index[f.Name] = len(slots)
			slots = append(slots, slotInfo{name: f.Name, width: f.Width, hdr: hi, bitOff: off})
			off += int(f.Width)
		}
		if !s.legacy && off%8 != 0 {
			return fmt.Errorf("packet: schema %s: header %s is %d bits; headers must be whole bytes", s.Name, h.Name, off)
		}
	}
	s.slots, s.index, s.hdrIndex = slots, index, hdrIndex
	return nil
}

// NumSlots returns the number of field slots.
func (s *HeaderSchema) NumSlots() int { return len(s.slots) }

// Slot resolves a field name to its dense slot index, or -1.
func (s *HeaderSchema) Slot(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// SlotName returns the field name of a slot.
func (s *HeaderSchema) SlotName(slot int) string { return s.slots[slot].name }

// SlotWidth returns the bit width of a slot.
func (s *HeaderSchema) SlotWidth(slot int) uint8 { return s.slots[slot].width }

// HeaderOfSlot returns the index of the header owning a slot.
func (s *HeaderSchema) HeaderOfSlot(slot int) int { return s.slots[slot].hdr }

// HeaderIndex resolves a header name to its index, or -1.
func (s *HeaderSchema) HeaderIndex(name string) int {
	if i, ok := s.hdrIndex[name]; ok {
		return i
	}
	return -1
}

// Width returns the bit width of a field name (0 for unknown names).
func (s *HeaderSchema) Width(name string) uint8 {
	if i, ok := s.index[name]; ok {
		return s.slots[i].width
	}
	return 0
}

// FieldNames lists every field name in slot order.
func (s *HeaderSchema) FieldNames() []string {
	out := make([]string, len(s.slots))
	for i, sl := range s.slots {
		out[i] = sl.name
	}
	return out
}

// headerBytes returns the wire size of header hi in bytes (legacy schemas
// report the packed size of their abstract field view, which the generic
// codec never uses).
func (s *HeaderSchema) headerBytes(hi int) int { return (s.Headers[hi].Bits() + 7) / 8 }

// FieldView is a decoded packet under a header schema: one uint64 slot
// per schema field plus a per-header presence mask and the trailing
// payload. It is the one forwarding representation: datapaths address
// fields by slot index, so the hot path is an array load instead of a
// struct-field switch, and the same compiled pipeline code serves any
// schema, the default one included.
//
// A view is created once per worker (Decoder.NewView) and refilled per
// frame by Decoder.ParseInto; the per-frame methods (ParseInto, Get, Set)
// do not allocate.
//
// Lifetime: a parsed view aliases its frame. On a generic schema
// ParseInto records where each header starts and keeps the frame; a slot
// is extracted from those bytes the first time Get reads it and cached
// until the next parse. Payload is a sub-slice of the frame on every
// schema. Slot reads and the payload are therefore valid only while the
// frame bytes are unchanged — a caller that reuses its receive buffer
// must finish with the view (or Clone it) first. Set stores in the view,
// never in the frame, and a stored value wins over the frame's. Clone
// materializes every present slot and copies the payload, so a clone
// owns everything it reads. A view that holds no parse — fresh from
// NewView, after Reset, or with headers switched on by MarkPresent —
// reads zero in every slot nothing was Set in, never bytes of an earlier
// frame.
//
// Because Get fills the cache, a view is single-goroutine state even for
// reads.
type FieldView struct {
	dec *Decoder
	// cells[i].ok means cells[i].val is current and its header present —
	// Get's one test, on the same cache line as the value. A slot of a
	// present header whose cell is not ok still sits in frame at
	// hdrOff[header]: only the generic ParseInto turns a header on without
	// filling its cells, and it clears them with one memclr, which is what
	// makes decoding cost the walk alone.
	cells []cell
	// hdrOff is the byte offset of each present, parsed header in frame.
	hdrOff  []int
	frame   []byte
	present uint64
	payload []byte
	// unknownNext, set per parse, flags an accepted frame whose select
	// value matched no transition and had no default to fall back to —
	// the frame is kept (remaining bytes as payload), but ingest arenas
	// count it.
	unknownNext bool
}

// cell is one slot of a view: its value and whether the value is current.
type cell struct {
	val uint64
	ok  bool
}

// Schema returns the view's header schema.
func (v *FieldView) Schema() *HeaderSchema { return v.dec.schema }

// Decoder returns the decoder the view was created from.
func (v *FieldView) Decoder() *Decoder { return v.dec }

// Reset clears presence, slot values, payload and the retained frame.
func (v *FieldView) Reset() {
	v.present = 0
	v.unknownNext = false
	clear(v.cells)
	v.frame = nil
	v.payload = nil
}

// UnknownNext reports whether the last parse accepted the frame after a
// select value that matched no transition (and no default continued the
// walk) — the typed "unknown next-header" outcome. It is informational:
// the frame was kept, with the unparsed bytes as payload.
func (v *FieldView) UnknownNext() bool { return v.unknownNext }

// Present returns the presence mask: bit h is set when header h of the
// schema was parsed (or marked present).
func (v *FieldView) Present() uint64 { return v.present }

// Get reads a slot; the second result is false when the slot is out of
// range or its header is absent — mirroring Packet.Field's contract. The
// first read of a slot after a generic parse extracts it from the frame.
func (v *FieldView) Get(slot int) (uint64, bool) {
	if uint(slot) >= uint(len(v.cells)) {
		return 0, false
	}
	if c := v.cells[slot]; c.ok {
		return c.val, true
	}
	if v.present&v.dec.slotMask[slot] == 0 {
		return 0, false
	}
	x := v.extract(slot)
	v.cells[slot] = cell{x, true}
	return x, true
}

// Ready is the inlinable fast path of Get: the slot's value when it is
// already current (every present slot after a default-schema parse, a
// generic slot once read or Set), one load with no call. A false result
// means "ask Get", not "absent". Hot loops read Ready first and fall back
// to Get, which must call out to extract and is over the compiler's
// inlining budget.
func (v *FieldView) Ready(slot int) (uint64, bool) {
	if uint(slot) < uint(len(v.cells)) {
		c := v.cells[slot]
		return c.val, c.ok
	}
	return 0, false
}

// extract runs the compiled load of one slot of a present, parsed header
// against the retained frame. The 8-byte window may reach past the header
// into the bytes that follow it, but never past the frame: a window that
// would is staged through a zero-padded stack array.
func (v *FieldView) extract(slot int) uint64 {
	ld := &v.dec.loads[slot]
	base := v.hdrOff[ld.hdr]
	if ld.shift == wideLoad {
		sl := &v.dec.schema.slots[slot]
		return readBits(v.frame[base:], sl.bitOff, sl.width)
	}
	var x uint64
	if w := v.frame[base+ld.off:]; len(w) >= 8 {
		x = binary.BigEndian.Uint64(w)
	} else {
		var tail [8]byte
		copy(tail[:], w)
		x = binary.BigEndian.Uint64(tail[:])
	}
	return x >> ld.shift & ld.mask
}

// loadAll extracts every slot of every present header that is still in
// the frame — the one bulk loop behind Record, Clone and Marshal, which
// read all slots and would otherwise pay Get's checks per slot.
func (v *FieldView) loadAll() {
	d := v.dec
	for hi := range d.states {
		if v.present&(1<<uint(hi)) == 0 {
			continue
		}
		st := &d.states[hi]
		for i := st.first; i < st.first+st.nFields; i++ {
			if !v.cells[i].ok {
				v.cells[i] = cell{v.extract(i), true}
			}
		}
	}
}

// Set writes a slot (masked to the field width), reporting whether the
// slot exists and its header is present — mirroring Packet.SetField. The
// value lives in the view; the frame is not written.
func (v *FieldView) Set(slot int, val uint64) bool {
	if uint(slot) >= uint(len(v.cells)) {
		return false
	}
	if v.present&v.dec.slotMask[slot] == 0 {
		return false
	}
	v.cells[slot] = cell{val & v.dec.loads[slot].mask, true}
	return true
}

// GetName reads a field by name (convenience; hot paths resolve the slot
// once and use Get).
func (v *FieldView) GetName(name string) (uint64, bool) {
	return v.Get(v.dec.schema.Slot(name))
}

// SetName writes a field by name.
func (v *FieldView) SetName(name string, val uint64) bool {
	return v.Set(v.dec.schema.Slot(name), val)
}

// HeaderPresent reports whether header hi was parsed (or marked present).
func (v *FieldView) HeaderPresent(hi int) bool { return v.present&(1<<uint(hi)) != 0 }

// MarkPresent marks header hi present — used by generators that build
// views by hand before encoding them. The fields of a header switched on
// this way read zero until Set.
func (v *FieldView) MarkPresent(hi int) {
	if v.present&(1<<uint(hi)) != 0 {
		return
	}
	v.present |= 1 << uint(hi)
	st := &v.dec.states[hi]
	for i := st.first; i < st.first+st.nFields; i++ {
		v.cells[i] = cell{0, true}
	}
}

// MarkPresentName marks a header present by name, reporting whether the
// name was known.
func (v *FieldView) MarkPresentName(name string) bool {
	hi := v.dec.schema.HeaderIndex(name)
	if hi < 0 {
		return false
	}
	v.MarkPresent(hi)
	return true
}

// Payload returns everything after the parsed headers.
func (v *FieldView) Payload() []byte { return v.payload }

// SetPayload sets the trailing payload for encoding.
func (v *FieldView) SetPayload(b []byte) { v.payload = b }

// Record converts the view into the attribute-record form evaluated by
// the relational semantics: every field of every present header, keyed by
// field name. The schema-generic analogue of Packet.Record.
func (v *FieldView) Record() mat.Record {
	v.loadAll()
	r := make(mat.Record, len(v.cells))
	for i, c := range v.cells {
		if v.present&v.dec.slotMask[i] != 0 {
			r[v.dec.schema.slots[i].name] = c.val
		}
	}
	return r
}

// Clone deep-copies the view: every present slot is materialized and the
// payload copied, so the clone reads nothing of v's frame.
func (v *FieldView) Clone() *FieldView {
	v.loadAll()
	c := v.dec.NewView()
	copy(c.cells, v.cells)
	c.present = v.present
	c.payload = append([]byte(nil), v.payload...)
	return c
}

// ParseInto decodes a frame into the view (see Decoder.ParseInto).
func (v *FieldView) ParseInto(frame []byte) error { return v.dec.ParseInto(v, frame) }

// Marshal encodes the view back to wire bytes (see Decoder.Marshal).
func (v *FieldView) Marshal(buf []byte) []byte { return v.dec.Marshal(v, buf) }

// widthMask returns the low-width-bits mask.
func widthMask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// readBits extracts width bits starting at bit offset off (big-endian bit
// order) from b, a byte at a time. It defines what a slot's value is: the
// compiled loads are tested against it, and it is the load itself for the
// rare field whose bits straddle nine bytes.
func readBits(b []byte, off int, width uint8) uint64 {
	var out uint64
	n := int(width)
	for n > 0 {
		byteIdx := off >> 3
		bitIdx := off & 7
		take := 8 - bitIdx
		if take > n {
			take = n
		}
		bits := (b[byteIdx] >> uint(8-bitIdx-take)) & byte(1<<uint(take)-1)
		out = out<<uint(take) | uint64(bits)
		off += take
		n -= take
	}
	return out
}

// writeBits stores the low width bits of val at bit offset off in b
// (big-endian bit order).
func writeBits(b []byte, off int, width uint8, val uint64) {
	n := int(width)
	for n > 0 {
		byteIdx := off >> 3
		bitIdx := off & 7
		take := 8 - bitIdx
		if take > n {
			take = n
		}
		shift := uint(n - take)
		bits := byte(val>>shift) & byte(1<<uint(take)-1)
		mask := byte(1<<uint(take)-1) << uint(8-bitIdx-take)
		b[byteIdx] = b[byteIdx]&^mask | bits<<uint(8-bitIdx-take)
		off += take
		n -= take
	}
}
