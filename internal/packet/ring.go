package packet

// ViewRing is a fixed-size ring of reusable FieldViews over one decoder
// — the per-worker decode arena of the frame-batch ingest path. Slot
// lifetime is bounded by the ring capacity: the view handed out for
// frame i is overwritten for frame i+Cap, so a caller may hold at most
// the last Cap decoded views at once — and, since a parsed view reads its
// slots out of the frame it was decoded from (see FieldView), only while
// those frames' bytes are still what they were. A ring is not safe for
// concurrent use; one worker, one ring.
type ViewRing struct {
	views []*FieldView
	pos   int
}

// NewRing allocates a ring of n reusable views (n < 1 is clamped to 1).
func (d *Decoder) NewRing(n int) *ViewRing {
	if n < 1 {
		n = 1
	}
	r := &ViewRing{views: make([]*FieldView, n)}
	for i := range r.views {
		r.views[i] = d.NewView()
	}
	return r
}

// Cap returns the ring capacity.
func (r *ViewRing) Cap() int { return len(r.views) }

// Next returns the next reusable view, cycling. The returned view's
// previous contents are whatever the parse Cap calls ago left; callers
// decode into it before reading.
func (r *ViewRing) Next() *FieldView {
	v := r.views[r.pos]
	r.pos++
	if r.pos == len(r.views) {
		r.pos = 0
	}
	return v
}
