package switches

import (
	"encoding/binary"
	"math/bits"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
)

// flowKey is the cache-key layout of one installed program: the slots its
// tables match (dataplane.Pipeline.MatchSlots) and the headers those live
// in. The verdict of a frame is a function of those slots' values and
// their headers' presence, so both cache layers key on exactly that — on
// every schema, with no cap on the number of slots. Each value takes its
// field's width rounded up to whole bytes, so a key is as long as the
// program needs.
type flowKey struct {
	slots   []int
	nbytes  []int    // per slot: key bytes
	widths  []uint8  // per slot: field width
	hdrs    []int    // per slot: header index
	hdrMask uint64   // presence bits of the slots' headers
	pbytes  int      // key bytes of the presence bits
	size    int      // bytes of a full key
	vals    []uint64 // per slot: the current frame's values
	buf     []byte   // scratch, size plus the 8-byte store slack
}

func newFlowKey(dp *dataplane.Pipeline) *flowKey {
	s := dp.Schema()
	k := &flowKey{slots: dp.MatchSlots()}
	for _, slot := range k.slots {
		w := s.SlotWidth(slot)
		k.widths = append(k.widths, w)
		k.nbytes = append(k.nbytes, (int(w)+7)/8)
		k.size += (int(w) + 7) / 8
		k.hdrs = append(k.hdrs, s.HeaderOfSlot(slot))
		k.hdrMask |= 1 << uint(s.HeaderOfSlot(slot))
	}
	k.pbytes = (bits.Len64(k.hdrMask) + 7) / 8
	k.size += k.pbytes
	k.vals = make([]uint64, len(k.slots))
	k.buf = make([]byte, k.size+8)
	return k
}

// read captures the frame's match-slot values (0 for a slot of an absent
// header) and returns its presence bits — taken before the slow path can
// rewrite the view, so a megaflow installed after it keys on what the
// frame carried.
func (k *flowKey) read(v *packet.FieldView) uint64 {
	for i, slot := range k.slots {
		x, ok := v.Ready(slot)
		if !ok {
			x, _ = v.Get(slot)
		}
		k.vals[i] = x
	}
	return v.Present() & k.hdrMask
}

// put stores the low n bytes of x at buf[at:] and returns the next
// offset. It writes all eight bytes, so buf needs 8 bytes of room at at;
// the bytes past the n kept are overwritten by the next put or cut off.
func put(buf []byte, at int, x uint64, n int) int {
	binary.LittleEndian.PutUint64(buf[at:], x)
	return at + n
}

// exact returns the EMC key of the frame last read: presence and every
// slot value. The slice is scratch, valid until the next key.
func (k *flowKey) exact(present uint64) []byte {
	n := put(k.buf, 0, present, k.pbytes)
	for i, x := range k.vals {
		n = put(k.buf, n, x, k.nbytes[i])
	}
	return k.buf[:n]
}

// megaflowCache is the OVS-style second-level cache: masked ("megaflow")
// entries produced by slow-path wildcard tracing. One megaflow covers
// every microflow agreeing on the traced bits, so the cache stays small —
// roughly one entry per distinct pipeline path — and is exactly the lazily
// built denormalized table the paper's OVS discussion describes.
//
// Entries are grouped by mask signature (a dynamic tuple space); lookup
// probes each mask group with the masked key.
type megaflowCache struct {
	groups []*megaflowGroup
	byMask map[string]*megaflowGroup
	// Entries counts cached megaflows.
	Entries int
}

// megaflowGroup holds the megaflows of one mask: which headers' presence
// and which slot bits they depend on.
type megaflowGroup struct {
	hdrMask uint64
	cols    []maskedCol
	buckets map[string]dataplane.Verdict
}

// maskedCol is one slot a mask keeps: its index in the flowKey and the
// bits of it the traced tables consulted.
type maskedCol struct {
	pos  int
	mask uint64
}

func newMegaflowCache() *megaflowCache {
	return &megaflowCache{byMask: make(map[string]*megaflowGroup)}
}

// prefixMask keeps the top plen bits of a width-bit value.
func prefixMask(plen, width uint8) uint64 {
	if plen == 0 {
		return 0
	}
	m := ^uint64(0) >> (64 - width)
	return m &^ (m >> plen)
}

// key returns the group's masked key of the frame last read into k.
func (g *megaflowGroup) key(k *flowKey, present uint64) []byte {
	n := put(k.buf, 0, present&g.hdrMask, k.pbytes)
	for _, c := range g.cols {
		n = put(k.buf, n, k.vals[c.pos]&c.mask, k.nbytes[c.pos])
	}
	return k.buf[:n]
}

// lookup probes every mask group with the frame last read into k.
func (c *megaflowCache) lookup(k *flowKey, present uint64) (dataplane.Verdict, bool) {
	for _, g := range c.groups {
		if verdict, ok := g.buckets[string(g.key(k, present))]; ok {
			return verdict, true
		}
	}
	return dataplane.Verdict{}, false
}

// insert installs a megaflow from the slow-path trace of the frame last
// read into k: a slot the traced tables consulted contributes its
// header's presence, and the prefix of it they matched.
func (c *megaflowCache) insert(k *flowKey, present uint64, tr *dataplane.Trace, v dataplane.Verdict) {
	sig := make([]byte, len(k.slots))
	g := &megaflowGroup{}
	for i, slot := range k.slots {
		plen, consulted := tr.PLen(slot)
		if !consulted {
			continue
		}
		sig[i] = plen + 1
		g.hdrMask |= 1 << uint(k.hdrs[i])
		if plen > 0 {
			g.cols = append(g.cols, maskedCol{pos: i, mask: prefixMask(plen, k.widths[i])})
		}
	}
	if old, ok := c.byMask[string(sig)]; ok {
		g = old
	} else {
		g.buckets = make(map[string]dataplane.Verdict)
		c.byMask[string(sig)] = g
		c.groups = append(c.groups, g)
	}
	key := g.key(k, present)
	if _, dup := g.buckets[string(key)]; !dup {
		g.buckets[string(key)] = v
		c.Entries++
	}
}

// flush empties the cache (revalidation).
func (c *megaflowCache) flush() {
	c.groups = nil
	c.byMask = make(map[string]*megaflowGroup)
	c.Entries = 0
}
