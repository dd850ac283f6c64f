package fabric

import (
	"testing"

	"manorm/internal/confluence"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/usecases"
)

func gotoPipeline(t *testing.T) *mat.Pipeline {
	t.Helper()
	g := usecases.Generate(3, 3, 1)
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFingerprintIsEntryOrderInvariant(t *testing.T) {
	src := gotoPipeline(t)
	shuffled := src.Clone()
	for _, st := range shuffled.Stages {
		e := st.Table.Entries
		for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
			e[i], e[j] = e[j], e[i]
		}
	}
	fa, err := confluence.Fingerprint(src)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := confluence.Fingerprint(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("fingerprint depends on entry order: %s vs %s", fa, fb)
	}
}

func TestFingerprintDetectsSemanticDivergence(t *testing.T) {
	src := gotoPipeline(t)
	mutated := src.Clone()
	// Flip one load-balancing output: same shape, different program.
	lb := mutated.Stages[1].Table
	out := lb.Schema.Index("out")
	lb.Entries[0][out].Bits++
	fa, err := confluence.Fingerprint(src)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := confluence.Fingerprint(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatal("fingerprint failed to distinguish semantically different programs")
	}
}

func TestUnionOfShardsFingerprintsLikeOracle(t *testing.T) {
	src := gotoPipeline(t)
	for _, n := range []int{2, 3, 4} {
		shards, err := Place(src, n, Partition)
		if err != nil {
			t.Fatal(err)
		}
		union, err := unionPipeline(shards)
		if err != nil {
			t.Fatal(err)
		}
		fu, err := confluence.Fingerprint(union)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := confluence.Fingerprint(src)
		if err != nil {
			t.Fatal(err)
		}
		if fu != fo {
			t.Fatalf("n=%d: union fingerprint %s != oracle %s", n, fu, fo)
		}
	}
}

func TestDiffModsRepairsDrift(t *testing.T) {
	src := gotoPipeline(t)
	desired := src.Clone()
	actual := src.Clone()

	// Drift three ways: a lost entry, a corrupted action, and a spurious
	// leftover entry.
	t0 := actual.Stages[0].Table
	t0.Entries = t0.Entries[1:] // lost
	lb := actual.Stages[1].Table
	out := lb.Schema.Index("out")
	lb.Entries[0][out].Bits ^= 1 // corrupted
	spurious := desired.Stages[0].Table.Entries[0].Clone()
	spurious[0].Bits ^= 0xFFFF // distinct match key
	actual.Stages[0].Table.Entries = append(actual.Stages[0].Table.Entries, spurious)

	mods, err := diffMods(actual, desired)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 3 {
		t.Fatalf("diff produced %d mods, want 3 (add, modify, delete)", len(mods))
	}
	for i := range mods {
		if err := openflow.ApplyToPipeline(actual, &mods[i]); err != nil {
			t.Fatalf("repair mod %d (%v): %v", i, mods[i].Command, err)
		}
	}
	got, err := confluence.CanonicalState(actual)
	if err != nil {
		t.Fatal(err)
	}
	want, err := confluence.CanonicalState(desired)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("diff+apply did not restore the desired state")
	}
}

func TestDiffModsEmptyOnIdenticalState(t *testing.T) {
	src := gotoPipeline(t)
	mods, err := diffMods(src.Clone(), src.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 0 {
		t.Fatalf("diff of identical states produced %d mods", len(mods))
	}
}
