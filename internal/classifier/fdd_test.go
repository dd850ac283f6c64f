package classifier

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/usecases"
)

// refFirstMatch is the semantics FDD must implement: scan entries in
// insertion order, return the first whose every cell matches.
func refFirstMatch(t *mat.Table, key []uint64) int {
	fields := t.Schema.Fields()
	for ei, e := range t.Entries {
		hit := true
		for i, f := range fields {
			if !e[f].Matches(key[i], t.Schema[f].Width) {
				hit = false
				break
			}
		}
		if hit {
			return ei
		}
	}
	return -1
}

// randomTable builds a table with overlapping exact/prefix/any cells in
// arbitrary order — the shape fused rule lists take. Each column draws one
// style per table, so that the trials reach every node kind: mixed cells
// over a small value pool (dense dispatch, prefixes past fddLpmBits on the
// 16-bit column for the trie, scans), exact values spread over the whole
// width (past fddDenseMax on the 16-bit column: map dispatch), or one
// pinned value with a minority of wildcards (test node).
func randomTable(rng *rand.Rand, entries int) *mat.Table {
	widths := []uint8{8, 12, 16}
	t := mat.New("fuzz", mat.Schema{
		mat.F("a", widths[0]), mat.F("b", widths[1]), mat.F("c", widths[2]),
		mat.A("out", 16),
	})
	const (
		mixed = iota
		sparse
		pinned
	)
	styles := make([]int, len(widths))
	for i := range styles {
		styles[i] = rng.Intn(3)
	}
	pin := rng.Uint64() & 0x7
	for i := 0; i < entries; i++ {
		cells := make([]mat.Cell, 0, 4)
		for c, w := range widths {
			switch {
			case styles[c] == pinned && rng.Intn(4) > 0:
				cells = append(cells, mat.Exact(pin, w))
			case styles[c] == sparse && rng.Intn(3) > 0:
				cells = append(cells, mat.Exact(rng.Uint64(), w))
			case styles[c] != mixed:
				cells = append(cells, mat.Any())
			default:
				switch rng.Intn(3) {
				case 0:
					cells = append(cells, mat.Any())
				case 1:
					cells = append(cells, mat.Exact(rng.Uint64()&0x7, w)) // dense values: force overlaps
				default:
					cells = append(cells, mat.Prefix(rng.Uint64(), uint8(rng.Intn(int(w))+1), w))
				}
			}
		}
		cells = append(cells, mat.Exact(uint64(i), 16))
		t.Add(cells...)
	}
	return t
}

// FDD lookups must agree with ordered first-match reference semantics on
// random tables and random keys, including keys matching several
// overlapping entries of differing specificity. Over the run every node
// kind must be built at least once.
func TestFDDMatchesOrderedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var kinds [fddKinds]int
	for trial := 0; trial < 300; trial++ {
		tab := randomTable(rng, rng.Intn(40)+1)
		c, err := NewFDD(tab)
		if err != nil {
			t.Fatalf("trial %d: NewFDD: %v", trial, err)
		}
		for _, n := range c.nodes {
			kinds[n.kind]++
		}
		fields := tab.Schema.Fields()
		for k := 0; k < 200; k++ {
			key := []uint64{rng.Uint64() & 0x7, rng.Uint64() & 0xFFF, rng.Uint64() & 0x7}
			if k%2 == 0 { // bias keys toward entry patterns
				ei := rng.Intn(len(tab.Entries))
				for i, f := range fields {
					if cell := tab.Entries[ei][f]; !cell.IsAny() && rng.Intn(4) > 0 {
						key[i] = cell.Bits
					}
				}
			}
			want := refFirstMatch(tab, key)
			got := c.Lookup(key)
			if got != want {
				t.Fatalf("trial %d key %v: FDD=%d want=%d (%s)", trial, key, got, want, c)
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no trial built a node of kind %d (built per kind: %v)", k, kinds)
		}
	}
}

// FuzzFDDMatchesFirstMatch checks the diagram against ordered first-match
// semantics on rules and keys drawn from the fuzz input:
//
//	go test ./internal/classifier -run '^$' -fuzz FuzzFDDMatchesFirstMatch -fuzztime 15s
//
// Each rule reads, per column, a control byte (cell kind, prefix length)
// and the value's bytes; the keys are every rule's own pattern, crossings
// of patterns, and whatever input remains.
func FuzzFDDMatchesFirstMatch(f *testing.F) {
	f.Add([]byte{3, 1, 7, 2, 0, 9, 1, 0, 0, 0, 5, 0x42, 0xC0, 0, 2, 0, 1, 1, 0, 0, 2, 2, 1})
	f.Add([]byte{5, 1, 1, 5, 0, 0x30, 0x10, 0, 0, 0x22, 0xff, 0x0a, 0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{8, 0x41, 9, 0xC1, 0xAB, 0xCD, 0x7E, 10, 0, 0, 1, 0x41, 9, 0xC1, 0xAB, 0xCD, 0x7E, 10, 0, 0, 2, 0, 0, 0, 3, 4, 5, 6})
	widths := []uint8{8, 16, 32}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		value := func(w uint8) uint64 {
			var v uint64
			for range (w + 7) / 8 {
				v = v<<8 | next()
			}
			return v
		}
		tab := mat.New("fuzz", mat.Schema{
			mat.F("a", widths[0]), mat.F("b", widths[1]), mat.F("c", widths[2]), mat.A("out", 16),
		})
		for i := range int(next()%48) + 1 {
			cells := make([]mat.Cell, 0, 4)
			for _, w := range widths {
				ctl := next()
				switch ctl % 4 {
				case 0:
					cells = append(cells, mat.Any())
				case 1:
					cells = append(cells, mat.Exact(value(w), w))
				case 2:
					cells = append(cells, mat.Prefix(value(w), uint8(ctl/4)%(w+1), w))
				default: // a small pool, so that rules overlap
					cells = append(cells, mat.Exact(ctl/4%4, w))
				}
			}
			tab.Add(append(cells, mat.Exact(uint64(i), 16))...)
		}
		c, err := NewFDD(tab)
		if err != nil {
			t.Fatal(err)
		}
		fields := tab.Schema.Fields()
		var keys [][]uint64
		for ei := range tab.Entries {
			for j := range tab.Entries {
				k := make([]uint64, len(fields))
				for i, f := range fields {
					src := tab.Entries[ei]
					if (i+j)%2 == 1 {
						src = tab.Entries[j]
					}
					k[i] = src[f].Bits
				}
				keys = append(keys, k)
			}
		}
		for len(data) > 0 {
			keys = append(keys, []uint64{value(widths[0]), value(widths[1]), value(widths[2])})
		}
		for _, k := range keys {
			if got, want := c.Lookup(k), refFirstMatch(tab, k); got != want {
				t.Fatalf("key %v: FDD=%d want=%d (%s)", k, got, want, c)
			}
		}
	})
}

// The fused 250 x 40 gateway — the benchmark's scale program — must stay
// a small, shallow diagram: one test node on the service's port and one
// longest-match table over the backend prefixes under each VIP. The flat
// node must stay 24 bytes, and lookups must not allocate.
func TestFDDGatewayShape(t *testing.T) {
	tab := fusedGateway(t, usecases.Generate(250, 40, 1))
	c, err := NewFDD(tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() > 1000 || c.DecisionDepth() > 4 {
		t.Fatalf("gateway diagram %s: want at most 1000 nodes, depth 4", c)
	}
	if sz := unsafe.Sizeof(fddFlat{}); sz != 24 {
		t.Fatalf("fddFlat is %d bytes, want 24", sz)
	}
	keys := keysFor(tab, rand.New(rand.NewSource(5)), 256)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Lookup(keys[i%len(keys)])
		i++
	}); allocs != 0 {
		t.Fatalf("FDD.Lookup allocates %.1f times per call", allocs)
	}
}

// fusedGateway returns the match table pipeline fusion produces from the
// gateway's goto pipeline.
func fusedGateway(tb testing.TB, g *usecases.GwLB) *mat.Table {
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := fdd.Fuse(p)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.MatchTable()
}

// A sub-function reached along several paths is stored once. Under every
// value of a, the rules left for each value of b are the shared (b, c)
// rules followed by b's catch-all, so the c dispatch below (a, b) does not
// depend on a: one c node per b value, not one per (a, b) path.
func TestFDDHashConsesSharedSubDiagrams(t *testing.T) {
	const nA, nB, nC = 8, 4, 4
	tab := mat.New("shared", mat.Schema{mat.F("a", 8), mat.F("b", 8), mat.F("c", 8), mat.A("out", 16)})
	for b := range uint64(nB) {
		for c := range uint64(nC) {
			tab.Add(mat.Any(), mat.Exact(b, 8), mat.Exact(c, 8), mat.Exact(0, 16))
		}
		tab.Add(mat.Any(), mat.Exact(b, 8), mat.Any(), mat.Exact(0, 16))
	}
	for a := range uint64(nA) {
		tab.Add(mat.Exact(a, 8), mat.Any(), mat.Any(), mat.Exact(0, 16))
	}
	c, err := NewFDD(tab)
	if err != nil {
		t.Fatal(err)
	}
	perCol := make([]int, 3)
	for _, n := range c.nodes {
		perCol[n.col]++
	}
	// One a node, a b node per a value plus the default's, a c node per b value.
	if want := []int{1, nA + 1, nB}; !slices.Equal(perCol, want) {
		t.Fatalf("nodes per column %v, want %v (%s)", perCol, want, c)
	}
	for _, k := range keysFor(tab, rand.New(rand.NewSource(9)), 500) {
		if got, want := c.Lookup(k), refFirstMatch(tab, k); got != want {
			t.Fatalf("key %v: FDD=%d want=%d", k, got, want)
		}
	}

	// Interning shares only what is equal in every field.
	b := &fddBuilder{FDD: &FDD{}, intern: make(map[string]int32)}
	test := fddFlat{kind: fddTest, val: 5, a: leafRef(0), b: fddMiss}
	first := b.add(test)
	if b.add(test) != first {
		t.Fatal("an identical node was stored twice")
	}
	for _, n := range []fddFlat{
		{kind: fddTest, val: 6, a: test.a, b: test.b},
		{kind: fddTest, col: 1, val: 5, a: test.a, b: test.b},
		{kind: fddTest, val: 5, a: leafRef(1), b: test.b},
		{kind: fddTest, val: 5, a: test.a, b: leafRef(1)},
	} {
		if b.add(n) == first {
			t.Fatalf("node %+v shares the reference of %+v", n, test)
		}
	}
}

// A column that one rule pins and every other rule wildcards is not
// hoisted into a test node: hoisting k such columns would test each on
// every path, 2^k paths in all, where dispatching the discriminating
// column first leaves each pinned rule to a short scan.
func TestFDDDoesNotHoistMostlyWildcardColumns(t *testing.T) {
	const k = 8
	var sch mat.Schema
	for i := range k {
		sch = append(sch, mat.F(fmt.Sprintf("p%d", i), 8))
	}
	tab := mat.New("pins", append(sch, mat.F("b", 8), mat.A("out", 16)))
	for r := range k + 24 {
		cells := make([]mat.Cell, k, k+2)
		for i := range cells {
			cells[i] = mat.Any()
		}
		if r < k {
			cells[r] = mat.Exact(1, 8)
		}
		tab.Add(append(cells, mat.Exact(uint64(r), 8), mat.Exact(0, 16))...)
	}
	c, err := NewFDD(tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() > 2*k {
		t.Fatalf("%s: want at most %d nodes", c, 2*k)
	}
	for _, key := range keysFor(tab, rand.New(rand.NewSource(2)), 500) {
		if got, want := c.Lookup(key), refFirstMatch(tab, key); got != want {
			t.Fatalf("key %v: FDD=%d want=%d", key, got, want)
		}
	}
}

// A table wider than the flat node's column field is refused, not
// truncated.
func TestFDDRejectsTooManyColumns(t *testing.T) {
	var sch mat.Schema
	for i := range fddMaxCols + 1 {
		sch = append(sch, mat.F(fmt.Sprintf("f%d", i), 8))
	}
	tab := mat.New("wide", append(sch, mat.A("out", 16)))
	if _, err := NewFDD(tab); err == nil {
		t.Fatalf("NewFDD accepted %d match columns", fddMaxCols+1)
	}
}

// A later, more specific rule must lose to an earlier, broader one — the
// property that distinguishes FDD from every specificity-sorted template.
func TestFDDEntryOrderBeatsSpecificity(t *testing.T) {
	tab := mat.New("order", mat.Schema{mat.F("f", 8), mat.A("out", 16)})
	tab.Add(mat.Prefix(0x80, 1, 8), mat.Exact(0, 16)) // 1000_0000/1, first
	tab.Add(mat.Exact(0x81, 8), mat.Exact(1, 16))     // exact, second
	c, err := NewFDD(tab)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup([]uint64{0x81}); got != 0 {
		t.Fatalf("first-match order violated: got entry %d, want 0", got)
	}
	if got := c.Lookup([]uint64{0x00}); got != -1 {
		t.Fatalf("expected miss, got %d", got)
	}
}

// The structure must expose its size for fusion-cost telemetry.
func TestFDDStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomTable(rng, 16)
	c, err := NewFDD(tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Template() != "fdd" {
		t.Fatalf("template = %q", c.Template())
	}
	if c.Leaves() == 0 || c.DecisionDepth() == 0 {
		t.Fatalf("degenerate stats: %s", c)
	}
}
