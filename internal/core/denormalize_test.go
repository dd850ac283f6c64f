package core

import (
	"errors"
	"math/rand"
	"testing"

	"manorm/internal/fd"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/packet"
)

func TestDenormalizeRoundTripGwlb(t *testing.T) {
	tab := fig1a()
	for _, join := range []JoinKind{JoinMetadata, JoinGoto, JoinRematch} {
		a, err := AnalyzeDeclared(tab, gwlbDeclared(tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Decompose(a, ipDstToTCPDst(tab.Schema), join)
		if err != nil {
			t.Fatalf("join %s: %v", join, err)
		}
		back, err := Denormalize(p)
		if err != nil {
			t.Fatalf("join %s: denormalize: %v", join, err)
		}
		// The rejoined table must be semantically identical to the
		// original universal table.
		cex, _, err := netkat.EquivalentPipelines(mat.SingleTable(tab), mat.SingleTable(back), 0)
		if err != nil {
			t.Fatalf("join %s: %v", join, err)
		}
		if cex != nil {
			t.Fatalf("join %s: round trip changed semantics: %v\n%s", join, cex, back)
		}
		// And it must have exactly the original entry count (no lossy or
		// lossless-but-redundant join blowup).
		if len(back.Entries) != len(tab.Entries) {
			t.Errorf("join %s: round trip has %d entries, want %d\n%s", join, len(back.Entries), len(tab.Entries), back)
		}
	}
}

func TestDenormalizeRoundTripNormalizedL3(t *testing.T) {
	tab := fig2a()
	res, err := Normalize(tab, Options{Target: NF3, Declared: l3Declared(tab.Schema)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Denormalize(res.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	cex, _, err := netkat.EquivalentPipelines(mat.SingleTable(tab), mat.SingleTable(back), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Fatalf("L3 round trip changed semantics: %v\n%s", cex, back)
	}
	if len(back.Entries) != len(tab.Entries) {
		t.Errorf("L3 round trip has %d entries, want %d", len(back.Entries), len(tab.Entries))
	}
}

func TestDenormalizeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		tab := randomPlantedTable(rng)
		if len(tab.Entries) < 2 {
			continue
		}
		res, err := Normalize(tab, Options{Target: NF3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back, err := Denormalize(res.Pipeline)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, res.Pipeline)
		}
		cex, _, err := netkat.EquivalentPipelines(mat.SingleTable(tab), mat.SingleTable(back), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cex != nil {
			t.Fatalf("trial %d: Denormalize(Normalize(T)) ≠ T: %v", trial, cex)
		}
	}
}

func TestDenormalizeRejectsFallthrough(t *testing.T) {
	t0 := mat.New("T0", mat.Schema{mat.F("a", 8), mat.A("x", 8)})
	t0.Add(mat.Exact(1, 8), mat.Exact(1, 8))
	t1 := mat.New("T1", mat.Schema{mat.F("a", 8), mat.A("o", 8)})
	t1.Add(mat.Any(), mat.Exact(2, 8))
	p := &mat.Pipeline{Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: false},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	if _, err := Denormalize(p); err == nil {
		t.Fatalf("fall-through pipeline denormalized")
	}
}

func TestDenormalizeRejectsMatchedAndWritten(t *testing.T) {
	// An attribute matched in one stage and written in another cannot be
	// expressed in one universal row.
	t0 := mat.New("T0", mat.Schema{mat.F("a", 8), mat.A("b", 8)})
	t0.Add(mat.Exact(1, 8), mat.Exact(1, 8))
	t1 := mat.New("T1", mat.Schema{mat.F("b", 8), mat.A("o", 8)})
	t1.Add(mat.Exact(1, 8), mat.Exact(2, 8))
	p := &mat.Pipeline{Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	if _, err := Denormalize(p); err == nil {
		t.Fatalf("matched-and-written attribute accepted")
	}
}

func TestDenormalizeDisjointPathsPruned(t *testing.T) {
	// A rematch-style pipeline where stage 2 constraints contradict
	// stage 1 for some entry pairs: contradictory paths must vanish, not
	// produce junk rows.
	t0 := mat.New("T0", mat.Schema{mat.F("ip", 32), mat.A("g", 8)})
	t0.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Exact(1, 8))
	t0.Add(mat.IPv4Prefix("11.0.0.0", 8), mat.Exact(2, 8))
	t1 := mat.New("T1", mat.Schema{mat.F("ip", 32), mat.A("o", 8)})
	t1.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Exact(1, 8))
	t1.Add(mat.IPv4Prefix("11.0.0.0", 8), mat.Exact(2, 8))
	p := &mat.Pipeline{Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	back, err := Denormalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 {
		t.Fatalf("expected 2 joined rows (disjoint cross terms pruned), got %d\n%s", len(back.Entries), back)
	}
}

func TestDenormalizeTightensNestedPrefixes(t *testing.T) {
	// Stage 1 matches 10/8, stage 2 rematches 10.1/16: the joined row
	// must carry the tighter /16.
	t0 := mat.New("T0", mat.Schema{mat.F("ip", 32), mat.A("g", 8)})
	t0.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Exact(1, 8))
	t1 := mat.New("T1", mat.Schema{mat.F("ip", 32), mat.A("o", 8)})
	t1.Add(mat.IPv4Prefix("10.1.0.0", 16), mat.Exact(7, 8))
	p := &mat.Pipeline{Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	back, err := Denormalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 {
		t.Fatalf("rows = %d, want 1", len(back.Entries))
	}
	ipIdx := back.Schema.Index("ip")
	if got := back.Entries[0][ipIdx]; got != mat.IPv4Prefix("10.1.0.0", 16) {
		t.Errorf("joined prefix = %v, want 10.1.0.0/16", got)
	}
}

func TestDenormalizeOVSStyleCollapse(t *testing.T) {
	// The OVS story from §5: denormalizing the normalized pipeline
	// restores the universal table's footprint (the flow-cache collapse).
	tab := fig1a()
	a, err := AnalyzeDeclared(tab, gwlbDeclared(tab.Schema))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decompose(a, ipDstToTCPDst(tab.Schema), JoinGoto)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Denormalize(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.FieldCount(), tab.FieldCount(); got != want {
		t.Errorf("collapsed footprint = %d, want %d", got, want)
	}
}

// The Fig. 3 shape: stage 0 sets vlan, stage 1 re-matches it. A datapath
// re-matches the written vlan 5, so every 10/8 packet leaves on port 1,
// whatever vlan it arrived with: one row, with vlan unconstrained. (The
// relational reading would also keep a vlan-7 row to port 2.)
func TestDenormalizeRematchReadsWrittenValue(t *testing.T) {
	t0 := mat.New("set", mat.Schema{mat.F(packet.FieldIPDst, 32), mat.A("mod_vlan", 12)})
	t0.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Exact(5, 12))
	t1 := mat.New("rematch", mat.Schema{mat.F(packet.FieldVLAN, 12), mat.A("out", 16)})
	t1.Add(mat.Exact(5, 12), mat.Exact(1, 16))
	t1.Add(mat.Exact(7, 12), mat.Exact(2, 16))
	p := &mat.Pipeline{Name: "fig3", Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	back, err := Denormalize(p)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.New("want", mat.Schema{mat.F(packet.FieldIPDst, 32), mat.F(packet.FieldVLAN, 12), mat.A("mod_vlan", 12), mat.A("out", 16)})
	want.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Any(), mat.Exact(5, 12), mat.Exact(1, 16))
	if !back.Equal(want) {
		t.Fatalf("denormalized to\n%s\nwant\n%s", back, want)
	}
}

// A TTL match after dec_ttl has no constant to resolve against:
// Denormalize inherits fusion's refusal.
func TestDenormalizeRefusesTTLMatchAfterDec(t *testing.T) {
	t0 := mat.New("dec", mat.Schema{mat.F(packet.FieldIPDst, 32), mat.A("mod_ttl", 8)})
	t0.Add(mat.Any(), mat.Exact(1, 8))
	t1 := mat.New("ttl", mat.Schema{mat.F(packet.FieldTTL, 8), mat.A("out", 16)})
	t1.Add(mat.Exact(63, 8), mat.Exact(1, 16))
	p := &mat.Pipeline{Name: "ttl", Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	if _, err := Denormalize(p); !errors.Is(err, fdd.ErrUnfusable) {
		t.Fatalf("want fdd.ErrUnfusable, got %v", err)
	}
}

// Guard against regressions in the dependency machinery the denormalizer
// relies on: a declared FD projected through decomposition still holds.
func TestInheritedDependenciesHold(t *testing.T) {
	tab := fig2a()
	a, err := AnalyzeDeclared(tab, l3Declared(tab.Schema))
	if err != nil {
		t.Fatal(err)
	}
	f := fd.FD{From: mat.SetOf(tab.Schema, "mod_dmac"), To: mat.SetOf(tab.Schema, "out", "mod_smac")}
	p, err := Decompose(a, f, JoinMetadata)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Stages {
		sub, err := inheritAnalysis(a, f, st.Table)
		if err != nil {
			t.Fatalf("stage %s: %v", st.Table.Name, err)
		}
		for _, g := range sub.FDs {
			if !g.HoldsIn(st.Table) {
				t.Errorf("stage %s: inherited FD %s does not hold", st.Table.Name, g.Format(st.Table.Schema))
			}
		}
	}
}
