package classifier

import (
	"math/rand"
	"sort"
	"testing"

	"manorm/internal/mat"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// seedTernary replicates the pre-compiled ternary scan this repository
// shipped with: a priority-ordered linear scan calling mat.Cell.Matches on
// every cell, recomputing the prefix mask per cell per lookup. It is kept
// here (test-only) as the baseline BenchmarkTernaryLookup compares the
// compiled mask/value scan against.
type seedTernary struct {
	cols []column
	pats []pattern
}

func newSeedTernary(t *mat.Table) *seedTernary {
	cols, pats := extractPatterns(t)
	sort.SliceStable(pats, func(i, j int) bool { return pats[i].prio > pats[j].prio })
	return &seedTernary{cols: cols, pats: pats}
}

func (c *seedTernary) Lookup(key []uint64) int {
	for pi := range c.pats {
		p := &c.pats[pi]
		hit := true
		for i := range p.cells {
			if !p.cells[i].Matches(key[i], c.cols[i].width) {
				hit = false
				break
			}
		}
		if hit {
			return p.idx
		}
	}
	return -1
}

// TestCompiledTernaryMatchesSeed pins the compiled scan to the seed
// semantics on the paper's table shapes, including miss keys.
func TestCompiledTernaryMatchesSeed(t *testing.T) {
	for _, tab := range []*mat.Table{gwlbUniversal(20, 8), gwlbUniversal(4, 1), lpmTable(), exactTable(16)} {
		seed := newSeedTernary(tab)
		compiled := NewTernary(tab)
		keys := keysFor(tab, rand.New(rand.NewSource(7)), 2000)
		for _, k := range keys {
			if got, want := compiled.Lookup(k), seed.Lookup(k); got != want {
				t.Fatalf("%s: compiled %d != seed %d on %v", tab.Name, got, want, k)
			}
		}
	}
}

// lookupBench times one classifier implementation on the paper's 160-entry
// universal gateway & load-balancer table (the Table 1 hot path).
func lookupBench(b *testing.B, c interface{ Lookup([]uint64) int }, tab *mat.Table) {
	keys := benchKeys(tab, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(keys[i&1023]) < 0 {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkTernaryLookup compares the compiled mask/value ternary scan
// against the seed per-Cell implementation on the same table and keys:
//
//	go test -bench BenchmarkTernaryLookup ./internal/classifier
//
// The compiled variant must be >= 1.5x faster (see EXPERIMENTS.md).
func BenchmarkTernaryLookup(b *testing.B) {
	tab := gwlbUniversal(20, 8)
	b.Run("compiled", func(b *testing.B) { lookupBench(b, NewTernary(tab), tab) })
	b.Run("seed", func(b *testing.B) { lookupBench(b, newSeedTernary(tab), tab) })
}

// BenchmarkExactLookup times the hash template on a 160-entry exact table
// (the shape the normalized service stage compiles to).
func BenchmarkExactLookup(b *testing.B) {
	tab := exactTable(160)
	c, err := NewExact(tab)
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, c, tab)
}

// BenchmarkTupleSpaceLookup times tuple space search on the universal
// table (the OVS/Lagopus slow-path template).
func BenchmarkTupleSpaceLookup(b *testing.B) {
	tab := gwlbUniversal(20, 8)
	lookupBench(b, NewTupleSpace(tab), tab)
}

// BenchmarkLPMLookup times the trie on the backend-prefix shape.
func BenchmarkLPMLookup(b *testing.B) {
	tab := lpmTable()
	c, err := NewLPM(tab)
	if err != nil {
		b.Fatal(err)
	}
	lookupBench(b, c, tab)
}

// BenchmarkFDDLookupGateway10k times the fused 250 x 40 gateway — the
// benchmark's scale program, 10 251 rules — on 131 072 keys taken in trace
// order from gateway traffic with 5% misses, so the diagram is read with
// the scale workload's locality:
//
//	go test ./internal/classifier -run '^$' -bench FDDLookupGateway10k -cpuprofile fdd.prof
func BenchmarkFDDLookupGateway10k(b *testing.B) {
	const flows = 131072
	g := usecases.Generate(250, 40, 1)
	tab := fusedGateway(b, g)
	c, err := NewFDD(tab)
	if err != nil {
		b.Fatal(err)
	}
	fields := tab.Schema.Fields()
	keys := make([]uint64, 0, flows*len(fields))
	for _, p := range trafficgen.GwLB(g, flows, 0.95, 1).Packets() {
		for _, f := range fields {
			v, _ := p.Field(tab.Schema[f].Name)
			keys = append(keys, v)
		}
	}
	n := len(fields)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % flows * n
		c.Lookup(keys[k : k+n])
	}
}
