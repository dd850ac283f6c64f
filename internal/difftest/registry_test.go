package difftest

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"manorm/internal/core"
	"manorm/internal/mat"
)

// TestProperties is the registry's table test: names are unique, every
// property is documented and covered — by a planted input, which must
// diverge with its recorded kind, by a committed reproducer of a bug that
// is not fixed yet, or, where no input diverges on correct code, by an
// injected fault (faults) that it must report — and within a shape each
// divergence kind comes from one property only. A `fixed` reproducer is
// no coverage: a property that reports nothing passes it.
func TestProperties(t *testing.T) {
	covered := make(map[string]bool)
	source := make(map[string]string) // shape/kind → the property seen reporting it
	saw := func(d Divergence) {
		p := prop(t, d.Property)
		key := p.Input.Name + "/" + d.Kind
		if q, ok := source[key]; ok && q != d.Property {
			t.Errorf("%s kind %q comes from both %s and %s", p.Input.Name, d.Kind, q, d.Property)
		}
		source[key] = d.Property
	}

	names := make(map[string]bool)
	for _, p := range Properties() {
		if names[p.Name] {
			t.Errorf("property %q registered twice", p.Name)
		}
		names[p.Name] = true
		if p.Doc == "" || p.Check == nil || p.Input == nil {
			t.Errorf("property %q lacks a Doc, a Check or an Input", p.Name)
		}
	}

	for _, in := range Shapes() {
		for _, pl := range in.Plants {
			pr := prop(t, pl.Property)
			if pr.Input != in {
				t.Errorf("plant %s/%s is an input of %s, its property takes %s", pl.Property, pl.Name, in.Name, pr.Input.Name)
			}
			for seed := int64(1); seed <= 3; seed++ {
				p, err := pl.New(seed)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", pl.Property, pl.Name, seed, err)
				}
				divs := check(t, p, []Property{pr}, DefaultConfig())
				if !Reproduces(divs, pl.Kind) {
					t.Errorf("%s/%s seed %d: want [%s], got %v", pl.Property, pl.Name, seed, pl.Kind, divs)
				}
				for _, d := range divs {
					saw(d)
				}
			}
			covered[pl.Property] = true
		}
	}

	files, err := CorpusFiles(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pr, p, kind, err := UnmarshalCorpus(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		covered[pr.Name] = covered[pr.Name] || kind != KindFixed
		for _, d := range check(t, p, []Property{pr}, DefaultConfig()) {
			saw(d)
		}
	}
	for name, f := range faults {
		pr := prop(t, name)
		if divs := f.run(t); !Reproduces(divs, f.kind) {
			t.Errorf("%s missed its injected fault: want [%s], got %v", name, f.kind, divs)
		}
		covered[pr.Name] = true
	}
	for _, p := range Properties() {
		if !covered[p.Name] {
			t.Errorf("property %q has no planted input, reproducer of an unfixed bug or injected fault", p.Name)
		}
	}
}

// faults covers the properties whose contract is an invariant of the
// code rather than a caveat some input can trip: on correct code no input
// makes them diverge, so each is shown to fire on a healthy input with a
// fault injected — the bug class it hunts — and must report kind.
var faults = map[string]struct {
	kind string
	run  func(*testing.T) []Divergence
}{
	"counters":        {KindCounters, func(t *testing.T) []Divergence { return misattributingTwin(t, "counters", Generate(1)) }},
	"schema-counters": {KindCounters, func(t *testing.T) []Divergence { return misattributingTwin(t, "schema-counters", GenerateSchema(1)) }},
	"incremental":     {KindIncremental, forgottenAmbiguity},
}

// misattributingTwin replaces every fused twin of p by one compiled from
// its pipeline with the first stage's entries reversed: it forwards
// exactly like the interpreted pipeline but credits the wrong entries.
func misattributingTwin(t *testing.T, name string, p *Program) []Divergence {
	pr := prop(t, name)
	c := &Case{Program: p, cfg: DefaultConfig(), tally: make(map[string]int)}
	if err := pr.Input.prepare(c); err != nil {
		t.Fatal(err)
	}
	c.compiled()
	for name, tw := range c.twins {
		bad := tw.Pipeline.Clone()
		slices.Reverse(bad.Stages[0].Table.Entries)
		delete(c.dps, tw.Name)
		c.twins[name] = core.Variant{Name: tw.Name, Pipeline: bad}
	}
	divs, err := pr.Check(c)
	if err != nil {
		t.Fatal(err)
	}
	return divs
}

// forgottenAmbiguity puts a row that duplicates an installed row's match
// with another output into the logical pipeline behind the agent's back,
// as an admission check that lost track of it would: the agent then has
// nothing pending and accepts the next barrier, which the full check
// rejects.
func forgottenAmbiguity(t *testing.T) []Divergence {
	p := GenerateUpdates(1)
	live := mat.SingleTable(p.Table.Clone())
	r := &incrementalRun{variant: "universal", model: "eswitch", base: p.Packets, rng: rand.New(rand.NewSource(1))}
	if err := r.drive(live, 0); err != nil {
		t.Fatal(err)
	}
	tab := live.Stages[0].Table
	row := tab.Entries[0].Clone()
	out := tab.Schema.Index("out")
	if out < 0 {
		t.Fatal("seed 1's table has no out column")
	}
	row[out].Bits ^= 1
	tab.Entries = append(tab.Entries, row)
	r.barrier("after the forgotten row", nil)
	return r.divs
}
