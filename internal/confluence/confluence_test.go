// The table-driven suite lives in an external test package so it can
// plant cases through internal/difftest (which itself imports confluence
// for the fuzz cross-check) without an import cycle.
package confluence_test

import (
	"strings"
	"testing"

	"manorm/internal/confluence"
	"manorm/internal/core"
	"manorm/internal/difftest"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/usecases"
)

// newBase is the shared two-entry base state: exact (ip, port) keys
// selecting an output port.
func newBase() *mat.Pipeline {
	t := mat.New("base", mat.Schema{mat.F("ip", 8), mat.F("port", 8), mat.A("out", 16)}).
		Add(mat.Exact(1, 8), mat.Exact(1, 8), mat.Exact(10, 16)).
		Add(mat.Exact(2, 8), mat.Exact(2, 8), mat.Exact(20, 16))
	return mat.SingleTable(t)
}

func mkMod(cmd openflow.FlowModCommand, ip, port uint64, actions []openflow.ActionField) openflow.FlowMod {
	return openflow.FlowMod{
		Command: cmd, TableID: 0,
		Match: []openflow.MatchField{
			{Name: "ip", Width: 8, Cell: mat.Exact(ip, 8)},
			{Name: "port", Width: 8, Cell: mat.Exact(port, 8)},
		},
		Actions: actions,
	}
}

func out(v uint64) []openflow.ActionField {
	return []openflow.ActionField{{Name: "out", Width: 16, Value: v}}
}

func add(ip, port, o uint64) openflow.FlowMod {
	return mkMod(openflow.FlowAdd, ip, port, out(o))
}

func del(ip, port uint64) openflow.FlowMod {
	return mkMod(openflow.FlowDelete, ip, port, nil)
}

func modify(ip, port, o uint64) openflow.FlowMod {
	return mkMod(openflow.FlowModify, ip, port, out(o))
}

func TestCheckKnownPairs(t *testing.T) {
	opts := confluence.Options{Seed: 1, Compensation: true}
	cases := []struct {
		name       string
		batches    [][]openflow.FlowMod
		confluent  bool
		rejections bool // expect at least one rejected mod in some ordering
	}{
		{
			name:      "disjoint adds",
			batches:   [][]openflow.FlowMod{{add(5, 5, 50)}, {add(6, 6, 60)}},
			confluent: true,
		},
		{
			name:      "delete vs add of distinct keys",
			batches:   [][]openflow.FlowMod{{del(1, 1)}, {add(6, 6, 60)}},
			confluent: true,
		},
		{
			name:      "modify vs add elsewhere",
			batches:   [][]openflow.FlowMod{{modify(1, 1, 11)}, {add(6, 6, 60)}},
			confluent: true,
		},
		{
			name:      "multi-mod disjoint batches",
			batches:   [][]openflow.FlowMod{{add(5, 5, 50), del(1, 1)}, {add(6, 6, 60), modify(2, 2, 22)}},
			confluent: true,
		},
		{
			// Whichever add lands first wins; the loser is rejected as a
			// duplicate. Identical actions make that race harmless.
			name:       "identical racing adds",
			batches:    [][]openflow.FlowMod{{add(7, 7, 70)}, {add(7, 7, 70)}},
			confluent:  true,
			rejections: true,
		},
		{
			name:       "racing adds with different actions",
			batches:    [][]openflow.FlowMod{{add(7, 7, 70)}, {add(7, 7, 71)}},
			confluent:  false,
			rejections: true,
		},
		{
			// delete-then-add installs the key; add-then-delete removes it.
			name:       "add vs delete of the same absent key",
			batches:    [][]openflow.FlowMod{{add(9, 9, 90)}, {del(9, 9)}},
			confluent:  false,
			rejections: true,
		},
		{
			name:      "last-writer-wins modifies",
			batches:   [][]openflow.FlowMod{{modify(1, 1, 11)}, {modify(1, 1, 12)}},
			confluent: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := confluence.Check(newBase(), c.batches, opts)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if v.Confluent != c.confluent {
				t.Fatalf("Confluent = %v, want %v (verdict %+v)", v.Confluent, c.confluent, v)
			}
			if !v.Exhaustive {
				t.Fatalf("small batches must enumerate exhaustively, got sampled %d orderings", v.Orderings)
			}
			if c.rejections && len(v.Rejections) == 0 {
				t.Fatal("expected rejected mods in some ordering, saw none")
			}
			if !c.rejections && len(v.Rejections) > 0 {
				t.Fatalf("unexpected rejections: %+v", v.Rejections)
			}
			if v.Compensation == nil || !v.Compensation.OK {
				t.Fatalf("compensation must be well-founded here, got %+v", v.Compensation)
			}
			if v.Compensation.Prefixes == 0 {
				t.Fatal("compensation checked no prefixes")
			}
			if c.confluent {
				if v.NormalForms != 1 || v.Fingerprint == "" || v.Counterexample != nil {
					t.Fatalf("confluent verdict inconsistent: %+v", v)
				}
			} else {
				if v.Counterexample == nil {
					t.Fatal("non-confluent verdict without a counterexample")
				}
				r := v.Counterexample.Render(c.batches)
				if !strings.Contains(r, "non-confluent") || !strings.Contains(r, "batch 0") {
					t.Fatalf("render missing expected sections:\n%s", r)
				}
			}
		})
	}
}

// TestCheckOrderingCounts pins the enumeration accounting for a 2×2 pair.
func TestCheckOrderingCounts(t *testing.T) {
	batches := [][]openflow.FlowMod{{add(5, 5, 50), add(6, 6, 60)}, {del(1, 1), del(2, 2)}}
	v, err := confluence.Check(newBase(), batches, confluence.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Orderings != 6 || !v.Exhaustive {
		t.Fatalf("got %d orderings (exhaustive=%v), want 6 exhaustive", v.Orderings, v.Exhaustive)
	}
	if !v.Confluent || v.PacketsChecked == 0 {
		t.Fatalf("disjoint batches must commute with a witnessed forwarding check: %+v", v)
	}
}

// TestCheckEquivalentInsertionOrders exercises the fingerprint layer:
// two orderings that install the same rows in different sequences reach
// the same canonical state and fingerprint.
func TestCheckEquivalentInsertionOrders(t *testing.T) {
	batches := [][]openflow.FlowMod{{add(5, 5, 50)}, {add(6, 6, 60)}}
	v, err := confluence.Check(newBase(), batches, confluence.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Confluent || v.FinalStates != 1 {
		t.Fatalf("insertion order must not matter: %+v", v)
	}
}

// TestPlantedRematchHazardPair: the Fig. 3 rematch-hazard construction
// carrying two racing adds of the same key must be flagged non-confluent.
func TestPlantedRematchHazardPair(t *testing.T) {
	p := difftest.PlantConfluencePair(3)
	v, err := confluence.Check(mat.SingleTable(p.Table), p.Batches, confluence.Options{Seed: 1, Compensation: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Confluent {
		t.Fatal("planted racing pair on the rematch-hazard table must be non-confluent")
	}
	if v.Counterexample == nil || len(v.Rejections) == 0 {
		t.Fatalf("expected counterexample and duplicate-add rejections: %+v", v)
	}
	if v.Compensation == nil || !v.Compensation.OK {
		t.Fatalf("compensation must still be well-founded: %+v", v.Compensation)
	}
}

// TestFingerprintIgnoresEntryOrder: the fingerprint reads the relation
// alone — entry order, pipeline and table names and column order leave it
// where it is — and any change to the relation or its provenance moves it.
func TestFingerprintIgnoresEntryOrder(t *testing.T) {
	base := func() *mat.Pipeline {
		return mat.SingleTable(mat.New("t", mat.Schema{mat.F("ip", 8), mat.F("port", 8), mat.A("out", 16)}).
			Add(mat.Exact(1, 8), mat.Exact(1, 8), mat.Exact(10, 16)).
			Add(mat.Exact(2, 8), mat.Any(), mat.Exact(20, 16)))
	}
	want, err := confluence.Fingerprint(base())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(p *mat.Pipeline)
		same bool
	}{
		{"entries reversed", func(p *mat.Pipeline) {
			e := p.Stages[0].Table.Entries
			e[0], e[1] = e[1], e[0]
		}, true},
		{"pipeline renamed", func(p *mat.Pipeline) { p.Name = "other" }, true},
		{"table renamed", func(p *mat.Pipeline) { p.Stages[0].Table.Name = "other" }, true},
		{"columns permuted", func(p *mat.Pipeline) {
			tab := p.Stages[0].Table
			perm := []int{2, 0, 1}
			tab.Schema = tab.Schema.Project(perm)
			for i, e := range tab.Entries {
				tab.Entries[i] = mat.Entry{e[perm[0]], e[perm[1]], e[perm[2]]}
			}
		}, true},
		{"provenance changed", func(p *mat.Pipeline) { p.Stages[0].Table.Provenance = "vxlan" }, false},
		{"one action changed", func(p *mat.Pipeline) { p.Stages[0].Table.Entries[1][2] = mat.Exact(21, 16) }, false},
	} {
		p := base()
		tc.edit(p)
		got, err := confluence.Fingerprint(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (got == want) != tc.same {
			t.Errorf("%s: fingerprint %s, base %s; want equal=%v", tc.name, got, want, tc.same)
		}
	}
}

// TestFingerprintIsShapeInvariant: every representation core.Variants
// builds of a table — universal, metadata, goto and single-FD
// decompositions — forwards like it, so each has the table's fingerprint.
func TestFingerprintIsShapeInvariant(t *testing.T) {
	for _, g := range []*usecases.GwLB{usecases.Fig1(), usecases.Generate(20, 8, 42)} {
		tab, err := g.Universal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := confluence.Fingerprint(mat.SingleTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		vs, err := core.Variants(tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) < 3 {
			t.Fatalf("%s: %d variants, want the universal table and at least two decompositions", tab.Name, len(vs))
		}
		for _, v := range vs {
			got, err := confluence.Fingerprint(v.Pipeline)
			if err != nil {
				t.Fatalf("%s/%s: %v", tab.Name, v.Name, err)
			}
			if got != want {
				t.Errorf("%s/%s: fingerprint %s, universal table %s", tab.Name, v.Name, got, want)
			}
		}
	}
}
