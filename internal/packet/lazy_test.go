package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// eagerParse is the decode loop ParseInto ran before slots became lazy —
// walk the compiled states and readBits every field of every header — kept
// here as the oracle the lazy view is compared against. vals[i] is
// meaningful only where slot i's header is in present; reject is
// ReasonNone for an accepted frame.
func eagerParse(d *Decoder, frame []byte) (present uint64, vals []uint64, payload []byte, reject DecodeReason) {
	vals = make([]uint64, len(d.schema.slots))
	b := frame
	cur := d.start
	if len(b) < d.states[cur].size {
		return 0, nil, nil, ReasonTruncated
	}
	for cur >= 0 {
		st := &d.states[cur]
		if len(b) < st.size {
			break
		}
		hb := b[:st.size]
		if st.verify != nil && !st.verify(hb) {
			return 0, nil, nil, ReasonBadHeader
		}
		for i := st.first; i < st.first+st.nFields; i++ {
			sl := &d.schema.slots[i]
			vals[i] = readBits(hb, sl.bitOff, sl.width)
		}
		present |= 1 << uint(st.hdr)
		b = b[st.size:]
		if st.selSlot < 0 {
			cur = st.def
			continue
		}
		var sv uint64
		if present&d.slotMask[st.selSlot] != 0 {
			sv = vals[st.selSlot]
		}
		cur = st.def
		for _, e := range st.trans {
			if e.v == sv {
				cur = e.next
				break
			}
		}
	}
	return present, vals, b, ReasonNone
}

// lazySchema is one generated decoder plus what the frame generator needs
// to steer a frame down its graph.
type lazySchema struct {
	dec *Decoder
	// steer lists the select slots and values that, set in order, make
	// the walk take a transition at every selecting state.
	steer []steerVal
}

type steerVal struct {
	slot int
	val  uint64
}

// genLazySchema builds a random schema of 1–8 headers whose fields have
// widths 1–64 at arbitrary bit offsets (each header padded to whole bytes
// by a 1–7 bit field), one header carrying a 62-bit field at bit offset 3
// — a nine-byte span, the readBits fallback — a Verify hook on some
// headers, and a parse graph mixing unconditional edges, selects on the
// current header, selects on an earlier header, skip edges and
// accept-by-default states.
func genLazySchema(t *testing.T, rng *rand.Rand, id int) lazySchema {
	t.Helper()
	nh := 1 + rng.Intn(8)
	wideAt := rng.Intn(nh)
	headers := make([]Header, nh)
	for hi := range headers {
		h := Header{Name: fmt.Sprintf("h%d", hi)}
		add := func(w int) {
			h.Fields = append(h.Fields, FieldSpec{Name: fmt.Sprintf("h%d_f%d", hi, len(h.Fields)), Width: uint8(w)})
		}
		if hi == wideAt {
			add(3)
			add(62)
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				add(8 * (1 + rng.Intn(8))) // byte-sized, but not byte-aligned unless its neighbours are
			case 1:
				add(57 + rng.Intn(8)) // the widths where an unaligned offset spills into a ninth byte
			default:
				add(1 + rng.Intn(64))
			}
		}
		if r := h.Bits() % 8; r != 0 {
			add(8 - r)
		}
		if rng.Intn(4) == 0 {
			h.Verify = func(b []byte) bool { return b[0]&0x0f != 0x0f }
		}
		headers[hi] = h
	}
	schema, err := NewHeaderSchema(fmt.Sprintf("lazy%d", id), headers...)
	if err != nil {
		t.Fatal(err)
	}
	g := &ParseGraph{Schema: schema, Start: "h0", States: map[string]State{}}
	out := lazySchema{}
	for hi := 0; hi < nh-1; hi++ {
		next := headers[hi+1].Name
		switch rng.Intn(4) {
		case 0:
			g.States[headers[hi].Name] = State{Default: next}
		default:
			from := hi
			if rng.Intn(3) == 0 {
				from = rng.Intn(hi + 1) // a field of an earlier header steers
			}
			f := headers[from].Fields[rng.Intn(len(headers[from].Fields))]
			val := rng.Uint64() & widthMask(f.Width)
			st := State{Select: f.Name, Transitions: []Transition{{Value: val, Next: next}}}
			if hi+2 < nh && rng.Intn(3) == 0 {
				st.Transitions = append(st.Transitions, Transition{Value: val ^ 1, Next: headers[hi+2].Name})
			}
			if rng.Intn(3) == 0 {
				st.Default = next
			}
			g.States[headers[hi].Name] = st
			out.steer = append(out.steer, steerVal{schema.Slot(f.Name), val})
		}
	}
	out.dec, err = g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// frame renders one frame for the schema: usually a hand-built view with
// random slots and the steering values pinned, marshalled, with a random
// tail; sometimes pure noise.
func (ls lazySchema) frame(rng *rand.Rand) []byte {
	if rng.Intn(5) == 0 {
		f := make([]byte, rng.Intn(96))
		rng.Read(f)
		return f
	}
	s := ls.dec.Schema()
	v := ls.dec.NewView()
	for hi := range s.Headers {
		v.MarkPresent(hi)
	}
	for i := 0; i < s.NumSlots(); i++ {
		v.Set(i, rng.Uint64())
	}
	for _, sv := range ls.steer {
		if rng.Intn(8) != 0 {
			v.Set(sv.slot, sv.val)
		}
	}
	tail := make([]byte, rng.Intn(12))
	rng.Read(tail)
	v.SetPayload(tail)
	return v.Marshal(nil)
}

// checkView compares a parsed view with the eager oracle on the same
// frame: presence, payload, and every slot read through Get in the given
// order (nil = slot order).
func checkView(t testing.TB, v *FieldView, frame []byte, order []int) {
	t.Helper()
	d := v.dec
	present, vals, payload, reject := eagerParse(d, frame)
	if reject != ReasonNone {
		t.Fatalf("%s: oracle rejects (%v) a frame the decoder accepted", d.schema.Name, reject)
	}
	if v.present != present {
		t.Fatalf("%s: presence %b, eager %b (frame %d bytes)", d.schema.Name, v.present, present, len(frame))
	}
	if !bytes.Equal(v.Payload(), payload) {
		t.Fatalf("%s: payload %x, eager %x", d.schema.Name, v.Payload(), payload)
	}
	for k := 0; k < len(vals); k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		got, gok := v.Get(i)
		wok := present&d.slotMask[i] != 0
		if gok != wok || (wok && got != vals[i]) {
			t.Fatalf("%s: slot %d (%s, %d bits at %d): Get (%#x,%v), readBits (%#x,%v); frame %d bytes",
				d.schema.Name, i, d.schema.slots[i].name, d.schema.slots[i].width, d.schema.slots[i].bitOff,
				got, gok, vals[i], wok, len(frame))
		}
	}
}

// TestLazyMatchesEager is the lazy == eager property: over generated
// schemas and frames cut at every length, ONE view reused for all of them
// must agree with the eager oracle whatever is read, in whatever order,
// through whichever consumer — so a slot cached from frame i is never
// served for frame i+1, a cut frame never exposes the inner headers of the
// full one before it, and the 8-byte window never reads past the frame.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for id := 0; id < 60; id++ {
		ls := genLazySchema(t, rng, id)
		d := ls.dec
		ns := d.Schema().NumSlots()
		v := d.NewView()
		// Two frames cut in step, parsed alternately, so that consecutive
		// parses into v never carry the same bytes.
		bases := [2][]byte{}
		for fi := 0; fi < 6; fi++ {
			bases[fi&1] = ls.frame(rng)
			if fi&1 == 0 {
				continue
			}
			for n := 2 * max(len(bases[0]), len(bases[1])); n >= 0; n-- {
				full := bases[n&1]
				n := min(n/2, len(full))
				frame := append([]byte(nil), full[:n]...) // a copy: the Clone case scribbles over it
				_, vals, _, reject := eagerParse(d, frame)
				err := d.ParseInto(v, frame)
				if DecodeReasonOf(err) != reject || (err == nil) != (reject == ReasonNone) {
					t.Fatalf("schema %d: %d-byte frame: ParseInto err %v, eager verdict %v", id, n, err, reject)
				}
				if err != nil {
					continue
				}
				switch rng.Intn(6) {
				case 0: // every slot, random order
					checkView(t, v, frame, rng.Perm(ns))
				case 1: // Record with no Get before it
					rec := v.Record()
					want := 0
					for i := 0; i < ns; i++ {
						if v.present&d.slotMask[i] == 0 {
							continue
						}
						want++
						if got, ok := rec[d.schema.slots[i].name]; !ok || got != vals[i] {
							t.Fatalf("schema %d: Record[%s] = (%#x,%v), want %#x", id, d.schema.slots[i].name, got, ok, vals[i])
						}
					}
					if len(rec) != want {
						t.Fatalf("schema %d: Record has %d fields, want %d", id, len(rec), want)
					}
				case 2: // Marshal with no Get before it reproduces the frame
					if wire := v.Marshal(nil); !bytes.Equal(wire, frame) {
						t.Fatalf("schema %d: Marshal of a parsed %d-byte frame differs:\n got %x\nwant %x", id, n, wire, frame)
					}
				case 3: // Set before the first read and after it
					before, after := rng.Intn(ns), rng.Intn(ns)
					bv, av := rng.Uint64(), rng.Uint64()
					bok := v.Set(before, bv)
					_, _ = v.Get(after)
					aok := v.Set(after, av)
					for _, i := range rng.Perm(ns) {
						got, ok := v.Get(i)
						want, wok := vals[i], v.present&d.slotMask[i] != 0
						if i == before && bok {
							want = bv & widthMask(d.schema.slots[i].width)
						}
						if i == after && aok {
							want = av & widthMask(d.schema.slots[i].width)
						}
						if ok != wok || (ok && got != want) {
							t.Fatalf("schema %d: slot %d after Set: (%#x,%v), want (%#x,%v)", id, i, got, ok, want, wok)
						}
					}
				case 4: // Clone, then scribble over the source frame
					if ns > 0 {
						_, _ = v.Get(rng.Intn(ns))
					}
					c := v.Clone()
					keep := append([]byte(nil), frame...)
					for i := range frame {
						frame[i] ^= 0xff
					}
					checkView(t, c, keep, rng.Perm(ns))
				default: // a few slots only, so most stay unloaded into the next parse
					for k := 0; k < 2 && ns > 0; k++ {
						i := rng.Intn(ns)
						got, ok := v.Get(i)
						if wok := v.present&d.slotMask[i] != 0; ok != wok || (ok && got != vals[i]) {
							t.Fatalf("schema %d: slot %d: (%#x,%v), want (%#x,%v)", id, i, got, ok, vals[i], wok)
						}
					}
				}
			}
		}
	}
}

// TestViewNeverReadsAStaleFrame pins the hand-built half of the lifetime
// contract on the VXLAN stack: after a full frame, a frame cut mid-graph
// hides the inner headers; switching them on by hand, or Reset, reads
// zeros — not the previous frame's bytes.
func TestViewNeverReadsAStaleFrame(t *testing.T) {
	dec := mustDecoder(t, SchemaVXLAN)
	s := dec.Schema()
	full := shippedWire(t, SchemaVXLAN)
	v := dec.NewView()
	if err := dec.ParseInto(v, full); err != nil {
		t.Fatal(err)
	}
	checkView(t, v, full, nil)
	vni, inner := s.Slot(FieldVXLANVNI), s.Slot(FieldInnerEthDst)

	cut := full[:14+20+8+3] // eth, ipv4, udp, and 3 of vxlan's 8 bytes
	if err := dec.ParseInto(v, cut); err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{vni, inner} {
		if x, ok := v.Get(slot); ok {
			t.Errorf("cut frame: %s readable (%#x) though its header is absent", s.SlotName(slot), x)
		}
	}
	// Same length, but ARP: everything after eth is payload, sitting where
	// the previous parse found the tunnel headers.
	arp := append([]byte(nil), full...)
	arp[12], arp[13] = EtherTypeARP>>8, EtherTypeARP&0xff
	if err := dec.ParseInto(v, arp); err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{vni, inner} {
		if x, ok := v.Get(slot); ok {
			t.Errorf("arp frame: %s readable (%#x) though its header is absent", s.SlotName(slot), x)
		}
		v.MarkPresent(s.HeaderOfSlot(slot))
		if x, ok := v.Get(slot); !ok || x != 0 {
			t.Errorf("hand-marked header: %s = (%#x,%v), want (0,true)", s.SlotName(slot), x, ok)
		}
	}
	if x, ok := v.GetName("eth_type"); !ok || x != EtherTypeARP { // the parsed header still reads its frame
		t.Errorf("eth_type = (%#x,%v), want (%#x,true)", x, ok, EtherTypeARP)
	}

	if err := dec.ParseInto(v, full); err != nil {
		t.Fatal(err)
	}
	v.Reset()
	for hi := range s.Headers {
		v.MarkPresent(hi)
	}
	for i := 0; i < s.NumSlots(); i++ {
		if x, ok := v.Get(i); !ok || x != 0 {
			t.Errorf("after Reset: slot %s = (%#x,%v), want (0,true)", s.SlotName(i), x, ok)
		}
	}
	fresh := dec.NewView()
	fresh.MarkPresent(0)
	if x, ok := fresh.Get(0); !ok || x != 0 {
		t.Errorf("fresh view: slot 0 = (%#x,%v), want (0,true)", x, ok)
	}
}

var benchSink uint64

// BenchmarkDecode times Decoder.ParseInto on one full-chain frame per
// shipped schema. The plain rows are the walk alone — what a forwarding
// loop pays before it reads a field; vxlan-allslots adds a Get of every
// slot, the cost the eager decoder charged every frame; vxlan-malformed
// is a frame cut below the first header, which must not allocate.
func BenchmarkDecode(b *testing.B) {
	for _, name := range []string{SchemaDefault, SchemaVXLAN, SchemaMPLS, SchemaGTPU} {
		dec, wire := mustDecoder(b, name), shippedWire(b, name)
		b.Run(name, func(b *testing.B) {
			v := dec.NewView()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := dec.ParseInto(v, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dec, wire := mustDecoder(b, SchemaVXLAN), shippedWire(b, SchemaVXLAN)
	b.Run("vxlan-allslots", func(b *testing.B) {
		v := dec.NewView()
		n := dec.Schema().NumSlots()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dec.ParseInto(v, wire); err != nil {
				b.Fatal(err)
			}
			for s := 0; s < n; s++ {
				x, _ := v.Get(s)
				benchSink += x
			}
		}
	})
	b.Run("vxlan-malformed", func(b *testing.B) {
		v := dec.NewView()
		short := wire[:EthHeaderLen-1]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if DecodeReasonOf(dec.ParseInto(v, short)) != ReasonTruncated {
				b.Fatal("short frame not rejected as truncated")
			}
		}
	})
}
