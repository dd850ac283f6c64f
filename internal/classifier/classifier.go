// Package classifier implements the packet-classifier templates a
// match-action table can be compiled to: exact-match hashing, single-field
// longest-prefix matching, priority-ordered ternary linear search,
// OVS-style tuple-space search, and the first-match decision diagram
// (FDD) that pipeline fusion lowers to.
//
// The FDD is laid out for the cache, not for the builder: its nodes are
// fixed 24-byte records in one slice linked by int32 indices, answers are
// encoded inline in the child references, dense, prefix-expansion, scan
// and trie payloads live in one shared slab per kind, and identical
// sub-diagrams are hash-consed into one node — so a fused 10 000-rule
// gateway is a 501-node diagram a lookup crosses in three dispatches.
//
// The template a table can use is decided by the *shape* of its match
// columns — and that shape is exactly what normalization changes. A
// universal table mixing prefixes with exact columns is stuck with the
// slow ternary template, while its normalized stages compile to the fast
// exact and LPM templates; this mechanism is the paper's explanation for
// ESwitch's 1.5× throughput gain (§5), and the models in internal/switches
// inherit it from here.
package classifier

import (
	"fmt"
	"sort"

	"manorm/internal/mat"
)

// Classifier finds the highest-priority entry matching a key. Keys carry
// one concrete value per match column, in the table's column order.
// Implementations are immutable after construction and safe for concurrent
// lookups.
type Classifier interface {
	// Lookup returns the matching entry index, or -1 on miss.
	Lookup(key []uint64) int
	// Template names the implementation ("exact", "lpm", ...).
	Template() string
}

// column describes one match column of a compiled table.
type column struct {
	width uint8
}

// pattern is one entry's match row: a cell per column plus its priority
// (total significant bits — most-specific-first, the convention of
// mat.Pipeline.Eval).
type pattern struct {
	cells []mat.Cell
	prio  int
	idx   int
}

// extractPatterns pulls the match columns out of a table. The returned
// widths describe the key layout expected by all classifiers built from
// this table.
func extractPatterns(t *mat.Table) (cols []column, pats []pattern) {
	fields := t.Schema.Fields()
	cols = make([]column, len(fields))
	for i, f := range fields {
		cols[i] = column{width: t.Schema[f].Width}
	}
	pats = make([]pattern, len(t.Entries))
	for ei, e := range t.Entries {
		cells := make([]mat.Cell, len(fields))
		prio := 0
		for i, f := range fields {
			cells[i] = e[f]
			prio += int(e[f].PLen)
		}
		pats[ei] = pattern{cells: cells, prio: prio, idx: ei}
	}
	return cols, pats
}

// Ternary is the fallback template: a priority-ordered linear scan with
// per-column masked compare — the "slowest wildcard matching template" of
// the paper's ESwitch discussion. It accepts any table shape.
//
// The scan is compiled at construction time: every entry's per-column
// (mask, value) words are precomputed into two flat row-major arrays, so a
// lookup is pure word compares over contiguous memory — no mat.Cell calls,
// no per-cell mask recomputation. Columns that are wildcarded in every
// entry are dropped from the compiled rows entirely. Rows are sorted by
// descending priority, so the first hit is the answer (the priority-order
// early exit).
type Ternary struct {
	nCols int // compiled (active) columns per row
	// active maps compiled column slots to key positions.
	active []int
	// masks/vals hold nRows × nCols words, row-major: row r matches iff
	// key[active[i]] & masks[r*nCols+i] == vals[r*nCols+i] for all i.
	masks []uint64
	vals  []uint64
	idx   []int32 // entry index per compiled row
}

// NewTernary builds a ternary classifier for the table's match columns,
// precomputing the per-entry mask/value words.
func NewTernary(t *mat.Table) *Ternary {
	cols, pats := extractPatterns(t)
	sort.SliceStable(pats, func(i, j int) bool { return pats[i].prio > pats[j].prio })

	// Keep only columns constrained by at least one entry; all-wildcard
	// columns match any key word and would waste scan bandwidth.
	var active []int
	for i := range cols {
		for _, p := range pats {
			if !p.cells[i].IsAny() {
				active = append(active, i)
				break
			}
		}
	}
	c := &Ternary{
		nCols:  len(active),
		active: active,
		masks:  make([]uint64, 0, len(pats)*len(active)),
		vals:   make([]uint64, 0, len(pats)*len(active)),
		idx:    make([]int32, len(pats)),
	}
	for r, p := range pats {
		c.idx[r] = int32(p.idx)
		for _, i := range active {
			m := prefixMask64(p.cells[i].PLen, cols[i].width)
			c.masks = append(c.masks, m)
			c.vals = append(c.vals, p.cells[i].Bits&m)
		}
	}
	return c
}

// prefixMask64 returns the mask selecting the top plen bits of a width-bit
// value (right-aligned in 64 bits).
func prefixMask64(plen, width uint8) uint64 {
	if plen == 0 {
		return 0
	}
	if plen > width {
		plen = width
	}
	full := ^uint64(0)
	if width < 64 {
		full = (uint64(1) << width) - 1
	}
	return full &^ (full >> plen)
}

// Lookup scans the compiled rows in priority order and returns on the
// first hit.
func (c *Ternary) Lookup(key []uint64) int {
	n := c.nCols
	if n == 0 {
		if len(c.idx) > 0 {
			return int(c.idx[0])
		}
		return -1
	}
	base := 0
	for r := range c.idx {
		hit := true
		for i := 0; i < n; i++ {
			if key[c.active[i]]&c.masks[base+i] != c.vals[base+i] {
				hit = false
				break
			}
		}
		if hit {
			return int(c.idx[r])
		}
		base += n
	}
	return -1
}

// Template returns "ternary".
func (c *Ternary) Template() string { return "ternary" }

// Validate checks that a key has the arity the classifier was built for.
// Helper shared by tests.
func keyArity(cols []column, key []uint64) error {
	if len(key) != len(cols) {
		return fmt.Errorf("classifier: key arity %d, want %d", len(key), len(cols))
	}
	return nil
}
