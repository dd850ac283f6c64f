package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// chooser feeds the pipeline generator its decisions: from a seeded rng in
// the property test, from the fuzzer's bytes (0 once they run out) under
// FuzzEvaluatorMatchesEval, so coverage guidance steers the shapes.
type chooser struct {
	data []byte
	rng  *rand.Rand
}

func (c *chooser) intn(n int) int {
	if c.rng != nil {
		return c.rng.Intn(n)
	}
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

func (c *chooser) chance(percent int) bool { return c.intn(100) < percent }

// genAttrs is the attribute pool of generated pipelines: match fields of
// several widths, a metadata tag that one stage writes and another
// matches, and plain actions — one of which shares its name with a field,
// so an action can change what a later stage matches.
var (
	genFields  = []Attr{F("f0", 4), F("f1", 8), F("f2", 32), F("f3", 64), F(MetaPrefix+"_t", 4), F("a1", 8)}
	genActions = []Attr{A("a0", 8), A("a1", 8), A(MetaPrefix+"_t", 4), A(DropAttr, 1)}
	genValues  = []uint64{0, 1, 2, 3, 0x80, 0xC0, 0xFF, 0x80000000, 0xC0000201, 1 << 63, ^uint64(0)}
)

// genCell draws a match cell: wildcards, prefixes that nest and overlap,
// exact values, all over a small value pool so that rows collide.
func genCell(c *chooser, w uint8) Cell {
	v := genValues[c.intn(len(genValues))]
	if c.chance(30) {
		v <<= uint(c.intn(int(w)))
	}
	switch c.intn(4) {
	case 0:
		return Any()
	case 1:
		return Exact(v, w)
	default:
		return Prefix(v<<(w-min(w, 8)), uint8(1+c.intn(int(w))), w)
	}
}

// genPipeline draws a pipeline of one to four stages with overlapping
// prefixes, duplicate match rows, wildcard-only rows, empty tables, goto /
// metadata / fall-through joins, either miss policy and goto cycles.
func genPipeline(c *chooser, name string) *Pipeline {
	n := 1 + c.intn(4)
	p := &Pipeline{Name: name, Start: c.intn(n)}
	for si := 0; si < n; si++ {
		var sch Schema
		for _, f := range genFields {
			if c.chance(45) {
				sch = append(sch, f)
			}
		}
		hasGoto := c.chance(40)
		for _, a := range genActions {
			if c.chance(40) && sch.Index(a.Name) < 0 {
				sch = append(sch, a)
			}
		}
		if hasGoto || len(sch) == 0 {
			sch = append(sch, A(GotoAttr, 8))
		}
		t := New(fmt.Sprintf("%s.T%d", name, si), sch)
		for ei, rows := 0, c.intn(9); ei < rows; ei++ {
			cells := make([]Cell, len(sch))
			dup := ei > 0 && c.chance(15)
			for i, a := range sch {
				switch {
				case a.Name == GotoAttr:
					cells[i] = Exact(uint64(c.intn(n)), a.Width)
				case a.Kind == Action:
					cells[i] = Exact(uint64(c.intn(4)), a.Width)
				case dup:
					cells[i] = t.Entries[ei-1][i]
				case c.chance(10):
					cells[i] = Any()
				default:
					cells[i] = genCell(c, a.Width)
				}
			}
			if c.chance(8) {
				for _, fi := range sch.Fields() {
					cells[fi] = Any()
				}
			}
			t.Add(cells...)
		}
		p.Stages = append(p.Stages, Stage{Table: t, Next: c.intn(n+1) - 1, MissDrop: c.chance(50)})
	}
	return p
}

// genProbe draws an input record: fields present or absent, values from
// the pool or just beside a pool value, sometimes a metadata tag or an
// attribute no table mentions.
func genProbe(c *chooser) Record {
	r := Record{}
	for _, f := range genFields {
		if c.chance(25) {
			continue
		}
		v := genValues[c.intn(len(genValues))]
		if c.chance(30) {
			v <<= uint(c.intn(int(f.Width)))
		}
		if c.chance(20) {
			v += uint64(c.intn(3)) - 1
		}
		r[f.Name] = v
	}
	if c.chance(10) {
		r["bystander"] = 7
	}
	if c.chance(5) {
		r[DropAttr] = uint64(c.intn(2))
	}
	return r
}

// checkEvaluator holds the evaluator to the definition on one pipeline
// pair and one probe: same output record and same error from Eval, and —
// the shape the equivalence loop uses — Run on slot vectors over a shared
// numbering agreeing with Observable().Equal on the definition's outputs.
func checkEvaluator(t *testing.T, a, b *Pipeline, ea, eb *Evaluator, slots *Slots, in Record) {
	t.Helper()
	var want [2]Record
	var werr [2]error
	for k, side := range []struct {
		p *Pipeline
		e *Evaluator
	}{{a, ea}, {b, eb}} {
		want[k], werr[k] = side.p.Eval(in)
		got, gerr := side.e.Eval(in)
		if fmt.Sprint(gerr) != fmt.Sprint(werr[k]) {
			t.Fatalf("on %v: evaluator error %v, definition error %v\n%s", in, gerr, werr[k], side.p)
		}
		if gerr == nil && !got.Equal(want[k]) {
			t.Fatalf("on %v: evaluator %v, definition %v\n%s", in, got, want[k], side.p)
		}
	}
	if werr[0] != nil || werr[1] != nil {
		return
	}
	va, vb := slots.NewVec(), slots.NewVec()
	slots.Load(va, in)
	slots.Load(vb, in)
	if err := ea.Run(va); err != nil {
		t.Fatal(err)
	}
	if err := eb.Run(vb); err != nil {
		t.Fatal(err)
	}
	wantEq := want[0].Observable().Equal(want[1].Observable())
	if got := slots.ObservableEqual(va, vb); got != wantEq {
		t.Fatalf("on %v: ObservableEqual = %v, definition says %v (%v vs %v)\n%s%s",
			in, got, wantEq, want[0].Observable(), want[1].Observable(), a, b)
	}
}

func checkEvaluatorOn(t *testing.T, c *chooser, probes int) {
	a, b := genPipeline(c, "A"), genPipeline(c, "B")
	slots := NewSlots()
	ea, eb := NewEvaluator(a, slots), NewEvaluator(b, slots)
	for i := 0; i < probes; i++ {
		checkEvaluator(t, a, b, ea, eb, slots, genProbe(c))
	}
}

// TestEvaluatorMatchesEval is the property: on random pipelines and probes
// the indexed evaluator and the definition (Pipeline.Eval) agree on the
// output record and on the error.
func TestEvaluatorMatchesEval(t *testing.T) {
	outcomes := map[string]int{}
	for seed := int64(0); seed < 400; seed++ {
		c := &chooser{rng: rand.New(rand.NewSource(seed))}
		checkEvaluatorOn(t, c, 40)

		// The generator must reach every behaviour the index has to get
		// right; tally them on the definition.
		p := genPipeline(c, "P")
		for i := 0; i < 20; i++ {
			out, err := p.Eval(genProbe(c))
			switch {
			case err != nil && err.Error() == fmt.Sprintf("mat: pipeline %s: stage budget exceeded (goto cycle?)", p.Name):
				outcomes["cycle"]++
			case err != nil:
				outcomes["ambiguous"]++
			case out[DropAttr] == 1:
				outcomes["drop"]++
			default:
				outcomes["forward"]++
			}
		}
	}
	t.Logf("outcomes on the definition: %v", outcomes)
	for _, k := range []string{"cycle", "ambiguous", "drop", "forward"} {
		if outcomes[k] < 20 {
			t.Errorf("generator reached outcome %q only %d times: %v", k, outcomes[k], outcomes)
		}
	}
}

// FuzzEvaluatorMatchesEval is the same property with the fuzzer choosing
// the pipelines and the probes.
func FuzzEvaluatorMatchesEval(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 512)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEvaluatorOn(t, &chooser{data: data}, 16)
	})
}

// TestEvaluatorOnPaperFigures runs the evaluator over Fig. 1a and its
// goto decomposition, the two programs every other test reads by eye.
func TestEvaluatorOnPaperFigures(t *testing.T) {
	uni, dec := SingleTable(fig1a()), fig1b()
	slots := NewSlots()
	eu, ed := NewEvaluator(uni, slots), NewEvaluator(dec, slots)
	for _, src := range []uint64{0, 0x3FFFFFFF, 0x40000000, 0x80000000, 0xFFFFFFFF} {
		for _, dst := range []uint64{0xC0000201, 0xC0000202, 0xC0000203, 0xC0000204} {
			for _, port := range []uint64{22, 80, 443, 8080} {
				checkEvaluator(t, uni, dec, eu, ed, slots, pkt(src, dst, port))
			}
		}
	}
	checkEvaluator(t, uni, dec, eu, ed, slots, Record{"ip_dst": 0xC0000203, "tcp_dst": 22})
}

// TestEvaluatorIsASnapshot: edits to the source tables after the build —
// appended rows, rewritten cells, truncation — neither show through nor
// make the evaluator read out of range.
func TestEvaluatorIsASnapshot(t *testing.T) {
	tab := fig1a()
	p := SingleTable(tab)
	ev := NewEvaluator(p, NewSlots())
	in := pkt(0x01000000, 0xC0000201, 80)
	want, err := p.Eval(in)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		tab.Add(Any(), Exact(uint64(i), 32), Exact(1, 16), Exact(99, 16))
	}
	tab.Entries[0][len(tab.Schema)-1] = Exact(77, 16)
	tab.Entries = tab.Entries[:1]
	p.Stages[0].MissDrop = false

	got, err := ev.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("evaluator saw a later edit: %v, built from %v", got, want)
	}
}

// gwlbTable is a gwlb-shaped table of the given number of services × 20
// rules: exact (ip_dst, tcp_dst) per service, a /4-or-/5 split of ip_src
// per backend.
func gwlbTable(services int) *Table {
	tab := New("gwlb", Schema{F("ip_src", 32), F("ip_dst", 32), F("tcp_dst", 16), A("out", 16)})
	for s := 0; s < services; s++ {
		for k := 0; k < 12; k++ {
			tab.Add(Prefix(uint64(k)<<28, 4, 32), Exact(uint64(s), 32), Exact(80, 16), Exact(uint64(k), 16))
		}
		for k := 24; k < 32; k++ {
			tab.Add(Prefix(uint64(k)<<27, 5, 32), Exact(uint64(s), 32), Exact(80, 16), Exact(uint64(k), 16))
		}
	}
	return tab
}

// BenchmarkEvaluatorBuild sizes the index build on gwlb-shaped tables of
// 160, 2 000 and 10 000 rules.
func BenchmarkEvaluatorBuild(b *testing.B) {
	for _, sz := range []struct {
		label    string
		services int
	}{{"160", 8}, {"2k", 100}, {"10k", 500}} {
		p := SingleTable(gwlbTable(sz.services))
		b.Run(sz.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ev := NewEvaluator(p, NewSlots()); len(ev.stages) != 1 {
					b.Fatal("no stage")
				}
			}
		})
	}
}
