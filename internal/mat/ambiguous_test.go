package mat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ambiguousPairwise is the definition checked pair by pair — the O(n²)
// loop AmbiguousPairs used to be, kept as the reference the grouped
// search must reproduce pair for pair, in order.
func ambiguousPairwise(t *Table) [][2]int {
	fields := t.Schema.Fields()
	total := func(e Entry) int {
		n := 0
		for _, fi := range fields {
			n += int(e[fi].PLen)
		}
		return n
	}
	var out [][2]int
	for i := 0; i < len(t.Entries); i++ {
		for j := i + 1; j < len(t.Entries); j++ {
			if total(t.Entries[i]) == total(t.Entries[j]) && t.overlap(fields, t.Entries[i], t.Entries[j]) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// randomOverlapTable draws a table whose cells come from a few nested
// prefixes per column, so equal-specificity overlaps within one
// prefix-length vector and across vectors are both common.
func randomOverlapTable(rng *rand.Rand, n int) *Table {
	t := New("R", Schema{F("a", 8), F("b", 16), F("c", 32), A("o", 8)})
	cell := func(width uint8) Cell {
		plens := []uint8{0, 1, 2, width / 2, width}
		return Prefix(uint64(rng.Intn(4))<<(width-2), plens[rng.Intn(len(plens))], width)
	}
	for i := 0; i < n; i++ {
		t.Add(cell(8), cell(16), cell(32), Exact(uint64(i), 8))
	}
	return t
}

func TestAmbiguousPairsMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	found := 0
	for trial := 0; trial < 200; trial++ {
		tab := randomOverlapTable(rng, 1+rng.Intn(40))
		want, got := ambiguousPairwise(tab), tab.AmbiguousPairs()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AmbiguousPairs = %v, pairwise = %v\n%s", trial, got, want, tab)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatalf("generator produced no ambiguous pair; the comparison checked nothing")
	}
}

// TestAmbiguousWithIsThePairsTouchingTheRows pins the contract the agent's
// touched-only barrier check rests on: restricted to some rows, the search
// returns exactly the full answer's pairs that involve one of them.
func TestAmbiguousWithIsThePairsTouchingTheRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		tab := randomOverlapTable(rng, 3+rng.Intn(40))
		rows := rng.Perm(len(tab.Entries))[:1+rng.Intn(3)]
		touched := make(map[int]bool)
		for _, r := range rows {
			touched[r] = true
		}
		var want [][2]int
		for _, p := range ambiguousPairwise(tab) {
			if touched[p[0]] || touched[p[1]] {
				want = append(want, p)
			}
		}
		if got := tab.AmbiguousWith(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d rows %v: AmbiguousWith = %v, want %v\n%s", trial, rows, got, want, tab)
		}
	}
	if got := fig1a().AmbiguousWith(nil); got != nil {
		t.Fatalf("no rows, yet pairs: %v", got)
	}
}

// BenchmarkAmbiguousPairs sizes the check on gwlb-shaped tables (gwlbTable).
func BenchmarkAmbiguousPairs(b *testing.B) {
	for _, services := range []int{8, 100, 500} {
		tab := gwlbTable(services)
		b.Run(fmt.Sprintf("entries=%d", len(tab.Entries)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := tab.AmbiguousPairs(); got != nil {
					b.Fatalf("clean table reported %v", got)
				}
			}
		})
	}
}
