package classifier

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"manorm/internal/mat"
)

// FDD is the fused-pipeline template: a field-ordered decision diagram in
// the style of the NetKAT compiler's forwarding decision diagrams.
// Internal nodes dispatch on one key column — a single compare when every
// constraining rule pins the column to one value, a dense child table for
// exact-valued columns spanning a compact range (a hash map otherwise), a
// longest-match expansion table or bit-trie for prefix columns — and a
// decision ends either in a direct answer or in a short first-match scan
// over the same precomputed mask/value rows the ternary template uses.
//
// The diagram is flat and index-linked so that it stays cache-resident at
// ten thousand rules: nodes are 24-byte fddFlat records in one slice,
// child references are int32 (a negative reference is an inline answer,
// see leafRef), and every variable-length payload lives in a shared slab
// per kind. Nodes are hash-consed: identical sub-diagrams are stored once.
//
// Unlike every other template, FDD resolves ties by *entry order*, not by
// specificity: the rule lists produced by pipeline fusion (internal/fdd)
// encode the source pipeline's semantics positionally, and re-sorting them
// by prefix length would be unsound (a fused miss-continuation rule must
// lose to every earlier rule it overlaps, regardless of how many bits
// either constrains).
type FDD struct {
	root  int32
	nodes []fddFlat
	kids  []int32            // dense and lpm child references
	rows  []fddRow           // scan rows
	maps  []map[uint64]int32 // sparse exact dispatch: value -> child
	trie  []fddVertex        // bit-trie vertices

	leaves int // direct answers decided while building
	depth  int // longest root-to-answer decision path
}

type fddKind uint8

const (
	fddTest fddKind = iota
	fddExact
	fddDense
	fddTrie
	fddLpm
	fddScan
	fddScan1
	fddKinds // number of node kinds
)

// fddFlat is one decision node. The operands mean, per kind:
//
//	test:  key[col] == val ? a : b
//	exact: maps[a][key[col]], else b
//	dense: kids[a + key[col]-val] for key[col]-val < n, else b
//	lpm:   kids[a + key[col]>>shift]
//	trie:  walk trie from vertex a over the shift-bit column
//	scan1: first of rows[a:a+n] whose mask/val matches key[col]
//	scan:  first rule of rows[a:a+n], val cells per rule, all matching
type fddFlat struct {
	kind  fddKind
	col   uint8
	shift uint8
	n     uint32
	a, b  int32
	val   uint64
}

// fddRow is one masked compare of a scan: key[col]&mask == val, answering
// entry idx.
type fddRow struct {
	mask, val uint64
	col, idx  int32
}

// fddVertex is one prefix-trie vertex; sub decides keys whose bit walk
// ends here (every strictly longer inserted prefix diverges from the key),
// and is only built for vertices lacking a child. A missing child is -1.
type fddVertex struct {
	child [2]int32
	sub   int32
}

// fddMiss is the reference answering "no entry matches".
const fddMiss int32 = -1

// leafRef encodes an entry answer as a negative child reference, so that
// miss (entry -1) is -1 and entry e is -(e+2); Lookup decodes -ref-2.
func leafRef(entry int32) int32 { return -(entry + 2) }

// fddMaxCols is the most match columns fddFlat.col can address.
const fddMaxCols = 1 << 8

// fddLpmBits caps the longest prefix a column may use before its dispatch
// falls back from a precomputed 2^plen expansion table (one shift+load
// resolves the longest match) to the bit-trie.
const fddLpmBits = 12

// fddDenseMax caps the value range a compact exact column may span before
// the dispatch falls back to a hash map: a dense child table indexes in
// two instructions where the map pays a hash and a probe, but an outlier
// value range would waste unbounded memory on absent slots.
const fddDenseMax = 4096

// fddScanMax bounds the rule count below which a first-match scan leaf is
// cheaper than further dispatch nodes.
const fddScanMax = 3

// fddBuilder holds the construction-only state: the column widths, each
// entry's canonical cells, and the hash-consing table from a node's
// content to its reference. A rule list is an ascending list of entry
// indices, so list order is first-match order.
type fddBuilder struct {
	*FDD
	cols   []column
	cells  [][]mat.Cell
	intern map[string]int32
	key    []byte
	seen   []mat.Cell
}

// NewFDD builds the decision diagram over the table's match columns with
// first-match-in-entry-order semantics.
func NewFDD(t *mat.Table) (*FDD, error) {
	cols, pats := extractPatterns(t)
	if len(cols) > fddMaxCols {
		return nil, fmt.Errorf("classifier: fdd over %d match columns, at most %d", len(cols), fddMaxCols)
	}
	b := &fddBuilder{FDD: &FDD{}, cols: cols, cells: make([][]mat.Cell, len(pats)), intern: make(map[string]int32)}
	rules := make([]int32, len(pats))
	for i, p := range pats {
		for c := range p.cells {
			p.cells[c] = p.cells[c].Canonical(cols[c].width)
		}
		b.cells[i], rules[i] = p.cells, int32(i)
	}
	b.root = b.build(rules, make([]bool, len(cols)), 1)
	return b.FDD, nil
}

// build returns the reference deciding an ordered rule list; done marks
// columns already resolved by ancestor dispatches.
func (b *fddBuilder) build(rules []int32, done []bool, depth int) int32 {
	b.depth = max(b.depth, depth)
	if len(rules) == 0 {
		b.leaves++
		return fddMiss
	}
	// First-match semantics: if the earliest rule is unconstrained on every
	// remaining column it shadows everything after it.
	if b.resolved(rules[0], done) {
		b.leaves++
		return leafRef(rules[0])
	}

	col := b.pickColumn(rules, done)
	if col < 0 || len(rules) <= fddScanMax {
		return b.scanLeaf(rules, done)
	}
	childDone := slices.Clone(done)
	childDone[col] = true

	byVal := make(map[uint64][]int32)
	var anyRules []int32
	for _, r := range rules {
		cell := b.cells[r][col]
		switch {
		case cell.IsAny():
			anyRules = append(anyRules, r)
		case cell.IsExact(b.cols[col].width):
			byVal[cell.Bits] = append(byVal[cell.Bits], r)
		default:
			return b.buildTrie(rules, childDone, col, depth)
		}
	}
	dflt := b.build(anyRules, childDone, depth+1)
	if len(byVal) > 1 {
		return b.buildExact(byVal, anyRules, dflt, childDone, col, depth)
	}
	// Every constraining rule holds the one value: the hit branch is the
	// whole list, the default its wildcard rules alone.
	hit := b.build(rules, childDone, depth+1)
	if hit == dflt {
		return hit
	}
	for v := range byVal {
		dflt = b.add(fddFlat{kind: fddTest, col: uint8(col), val: v, a: hit, b: dflt})
	}
	return dflt
}

// pickColumn chooses the next column to dispatch on. A column that every
// constraining rule pins to the same exact value comes first: it becomes
// a test node, which replicates only the column's wildcard rules. The
// test is hoisted only while the pinning rules outnumber the wildcard
// ones; a mostly-wildcarded column hoisted on every path would double the
// rule list at each level. Otherwise the most discriminating column wins:
// the one with the most distinct constraining patterns. Returns -1 when
// every remaining column is wildcarded by every rule.
func (b *fddBuilder) pickColumn(rules []int32, done []bool) int {
	best, bestScore := -1, 0
	test, testWild := -1, len(rules)
	for i := range b.cols {
		if done[i] {
			continue
		}
		seen := b.seen[:0]
		for _, r := range rules {
			if c := b.cells[r][i]; !c.IsAny() {
				seen = append(seen, c)
			}
		}
		wild := len(rules) - len(seen)
		slices.SortFunc(seen, func(x, y mat.Cell) int {
			return cmp.Or(cmp.Compare(x.Bits, y.Bits), cmp.Compare(x.PLen, y.PLen))
		})
		seen = slices.Compact(seen)
		b.seen = seen
		if len(seen) > bestScore {
			best, bestScore = i, len(seen)
		}
		if len(seen) == 1 && seen[0].IsExact(b.cols[i].width) && 2*wild < len(rules) && wild < testWild {
			test, testWild = i, wild
		}
	}
	if test >= 0 {
		return test
	}
	return best
}

// mergeOrdered merges two ascending rule lists.
func mergeOrdered(x, y []int32) []int32 {
	out := make([]int32, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		if x[0] < y[0] {
			out, x = append(out, x[0]), x[1:]
		} else {
			out, y = append(out, y[0]), y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// buildExact dispatches on an exact column holding several values: one
// subtree per value (the wildcard rules replicated into each, preserving
// order) plus the default subtree dflt of the wildcard rules alone.
// Compact value ranges (contiguous VIP blocks, small port pools) index a
// dense child table; others hash.
func (b *fddBuilder) buildExact(byVal map[uint64][]int32, anyRules []int32, dflt int32, done []bool, col int, depth int) int32 {
	vals := make([]uint64, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	subs := make([]int32, len(vals))
	for i, v := range vals {
		subs[i] = b.build(mergeOrdered(byVal[v], anyRules), done, depth+1)
	}
	lo, hi := vals[0], vals[len(vals)-1]
	if span := hi - lo + 1; span <= fddDenseMax {
		a := len(b.kids)
		for range span {
			b.kids = append(b.kids, dflt)
		}
		for i, v := range vals {
			b.kids[a+int(v-lo)] = subs[i]
		}
		return b.add(fddFlat{kind: fddDense, col: uint8(col), val: lo, n: uint32(span), a: int32(a), b: dflt})
	}
	m := make(map[uint64]int32, len(vals))
	for i, v := range vals {
		m[v] = subs[i]
	}
	b.maps = append(b.maps, m)
	return b.add(fddFlat{kind: fddExact, col: uint8(col), a: int32(len(b.maps) - 1), b: dflt})
}

// buildTrie dispatches on a prefix column: every distinct prefix becomes a
// trie path, and each vertex where a key's walk can end holds the decision
// built from the rules whose prefix covers the vertex, in original order,
// with the column resolved. Shallow prefix sets expand into a 2^maxPlen
// longest-match table: one shift and one load replace the per-bit walk.
func (b *fddBuilder) buildTrie(rules []int32, done []bool, col int, depth int) int32 {
	width := b.cols[col].width
	verts := []fddVertex{{child: [2]int32{-1, -1}, sub: fddMiss}}
	var maxPlen uint8
	for _, r := range rules {
		cell := b.cells[r][col]
		maxPlen = max(maxPlen, cell.PLen)
		vi := int32(0)
		for d := uint8(0); d < cell.PLen; d++ {
			bit := (cell.Bits >> (width - 1 - d)) & 1
			if verts[vi].child[bit] < 0 {
				verts[vi].child[bit] = int32(len(verts))
				verts = append(verts, fddVertex{child: [2]int32{-1, -1}, sub: fddMiss})
			}
			vi = verts[vi].child[bit]
		}
	}
	// cand holds the rules whose prefix agrees with the vertex's path on
	// their first min(plen, d) bits; those with plen <= d cover it. Down a
	// chain where no prefix ends, the covering rules and so the decision
	// stay those of the vertex above: above counts its covering rules and
	// aboveSub is its decision, if built.
	const unbuilt = math.MinInt32
	var fill func(vi int32, cand []int32, d uint8, above int, aboveSub int32)
	fill = func(vi int32, cand []int32, d uint8, above int, aboveSub int32) {
		v := verts[vi]
		covering := make([]int32, 0, len(cand))
		for _, r := range cand {
			if b.cells[r][col].PLen <= d {
				covering = append(covering, r)
			}
		}
		if len(covering) != above {
			aboveSub = unbuilt
		}
		if v.child[0] < 0 || v.child[1] < 0 {
			if aboveSub == unbuilt {
				aboveSub = b.build(covering, done, depth+1)
			}
			verts[vi].sub = aboveSub
		}
		for bit := range uint64(2) {
			if v.child[bit] < 0 {
				continue
			}
			next := make([]int32, 0, len(cand))
			for _, r := range cand {
				if cell := b.cells[r][col]; cell.PLen <= d || (cell.Bits>>(width-1-d))&1 == bit {
					next = append(next, r)
				}
			}
			fill(v.child[bit], next, d+1, len(covering), aboveSub)
		}
	}
	fill(0, rules, 0, -1, unbuilt)

	if maxPlen <= fddLpmBits {
		a := len(b.kids)
		for s := range 1 << maxPlen {
			vi := int32(0)
			for d := range maxPlen {
				next := verts[vi].child[(s>>(maxPlen-1-d))&1]
				if next < 0 {
					break
				}
				vi = next
			}
			b.kids = append(b.kids, verts[vi].sub)
		}
		return b.add(fddFlat{kind: fddLpm, col: uint8(col), shift: width - maxPlen, n: 1 << maxPlen, a: int32(a)})
	}
	a := int32(len(b.trie))
	for _, v := range verts {
		for i, ch := range v.child {
			if ch >= 0 {
				v.child[i] = ch + a
			}
		}
		b.trie = append(b.trie, v)
	}
	return b.add(fddFlat{kind: fddTrie, col: uint8(col), shift: width, n: uint32(len(verts)), a: a})
}

// scanLeaf compiles the remaining rules into first-match mask/value rows
// (the ternary row machinery, minus the priority sort) over the columns
// some rule still constrains.
func (b *fddBuilder) scanLeaf(rules []int32, done []bool) int32 {
	var active []int
	for i := range b.cols {
		if done[i] {
			continue
		}
		for _, r := range rules {
			if !b.cells[r][i].IsAny() {
				active = append(active, i)
				break
			}
		}
	}
	a := len(b.rows)
	for _, r := range rules {
		for _, i := range active {
			cell := b.cells[r][i]
			m := prefixMask64(cell.PLen, b.cols[i].width)
			b.rows = append(b.rows, fddRow{mask: m, val: cell.Bits & m, col: int32(i), idx: r})
		}
	}
	// The one-column case loads the key once and scans flat rows with no
	// per-cell column indirection.
	kind := fddScan
	if len(active) == 1 {
		kind = fddScan1
	}
	return b.add(fddFlat{kind: kind, col: uint8(active[0]), n: uint32(len(b.rows) - a), a: int32(a), val: uint64(len(active))})
}

// add stores n — whose payload, if any, is the tail of its kind's slab
// from n.a on — unless an identical node is already stored; then the
// payload is released and the stored node's reference returned.
func (b *fddBuilder) add(n fddFlat) int32 {
	k := append(b.key[:0], byte(n.kind), n.col, n.shift)
	k = binary.LittleEndian.AppendUint32(k, n.n)
	k = binary.LittleEndian.AppendUint32(k, uint32(n.b))
	k = binary.LittleEndian.AppendUint64(k, n.val)
	switch n.kind {
	case fddTest:
		k = binary.LittleEndian.AppendUint32(k, uint32(n.a))
	case fddDense, fddLpm:
		for _, r := range b.kids[n.a:] {
			k = binary.LittleEndian.AppendUint32(k, uint32(r))
		}
	case fddExact:
		m := b.maps[n.a]
		vals := make([]uint64, 0, len(m))
		for v := range m {
			vals = append(vals, v)
		}
		slices.Sort(vals)
		for _, v := range vals {
			k = binary.LittleEndian.AppendUint64(k, v)
			k = binary.LittleEndian.AppendUint32(k, uint32(m[v]))
		}
	case fddTrie:
		// Child indices relative to the trie's root, so equal tries at
		// different slab offsets share a key.
		for _, v := range b.trie[n.a:] {
			for _, ch := range v.child {
				if ch >= 0 {
					ch -= n.a
				}
				k = binary.LittleEndian.AppendUint32(k, uint32(ch))
			}
			k = binary.LittleEndian.AppendUint32(k, uint32(v.sub))
		}
	default: // scans
		for _, r := range b.rows[n.a:] {
			k = binary.LittleEndian.AppendUint64(k, r.mask)
			k = binary.LittleEndian.AppendUint64(k, r.val)
			k = binary.LittleEndian.AppendUint32(k, uint32(r.col))
			k = binary.LittleEndian.AppendUint32(k, uint32(r.idx))
		}
	}
	b.key = k
	if ref, ok := b.intern[string(k)]; ok {
		switch n.kind {
		case fddDense, fddLpm:
			b.kids = b.kids[:n.a]
		case fddExact:
			b.maps = b.maps[:n.a]
		case fddTrie:
			b.trie = b.trie[:n.a]
		case fddScan, fddScan1:
			b.rows = b.rows[:n.a]
		}
		return ref
	}
	ref := int32(len(b.nodes))
	b.nodes = append(b.nodes, n)
	b.intern[string(k)] = ref
	return ref
}

// resolved reports whether a rule constrains none of the remaining
// columns (it matches every key reaching this node).
func (b *fddBuilder) resolved(r int32, done []bool) bool {
	for i, cell := range b.cells[r] {
		if !done[i] && !cell.IsAny() {
			return false
		}
	}
	return true
}

// Lookup walks the decision diagram and returns the first matching entry
// in the table's entry order, or -1.
func (c *FDD) Lookup(key []uint64) int {
	ref := c.root
	for ref >= 0 {
		n := &c.nodes[ref]
		switch n.kind {
		case fddDense:
			if i := key[n.col] - n.val; i < uint64(n.n) {
				ref = c.kids[uint64(n.a)+i]
			} else {
				ref = n.b
			}
		case fddTest:
			if key[n.col] == n.val {
				ref = n.a
			} else {
				ref = n.b
			}
		case fddLpm:
			ref = c.kids[uint64(n.a)+key[n.col]>>n.shift]
		case fddExact:
			if r, ok := c.maps[n.a][key[n.col]]; ok {
				ref = r
			} else {
				ref = n.b
			}
		case fddTrie:
			v, vi := key[n.col], n.a
			for d := n.shift; d > 0; d-- {
				next := c.trie[vi].child[(v>>(d-1))&1]
				if next < 0 {
					break
				}
				vi = next
			}
			ref = c.trie[vi].sub
		case fddScan1:
			v := key[n.col]
			for _, r := range c.rows[n.a : n.a+int32(n.n)] {
				if v&r.mask == r.val {
					return int(r.idx)
				}
			}
			return -1
		default: // fddScan
			rows, k := c.rows[n.a:n.a+int32(n.n)], int(n.val)
		rules:
			for r := 0; r < len(rows); r += k {
				for _, cell := range rows[r : r+k] {
					if key[cell.col]&cell.mask != cell.val {
						continue rules
					}
				}
				return int(rows[r].idx)
			}
			return -1
		}
	}
	return int(-ref - 2)
}

// Template returns "fdd".
func (c *FDD) Template() string { return "fdd" }

// Nodes returns the number of distinct decision nodes.
func (c *FDD) Nodes() int { return len(c.nodes) }

// Leaves returns the number of direct answers decided during the build.
func (c *FDD) Leaves() int { return c.leaves }

// DecisionDepth returns the longest root-to-answer dispatch path.
func (c *FDD) DecisionDepth() int { return c.depth }

// String summarizes the structure for stats output.
func (c *FDD) String() string {
	return fmt.Sprintf("fdd{nodes=%d leaves=%d depth=%d}", len(c.nodes), c.leaves, c.depth)
}
