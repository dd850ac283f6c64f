package netkat

import (
	"testing"

	"manorm/internal/mat"
)

func TestDomainOfCoversBoundaries(t *testing.T) {
	tab := fig1a()
	dom := DomainOf(tab)
	// ip_src prefixes 0/1, 128/1, 0/2, 64/2, * must contribute interval
	// boundaries: 0, 0x3FFFFFFF, 0x40000000, 0x7FFFFFFF, 0x80000000,
	// 0xFFFFFFFF.
	wantSrc := []uint64{0, 0x3FFFFFFF, 0x40000000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
	have := make(map[uint64]bool)
	for _, v := range dom["ip_src"] {
		have[v] = true
	}
	for _, v := range wantSrc {
		if !have[v] {
			t.Errorf("ip_src domain missing boundary %#x; got %#x", v, dom["ip_src"])
		}
	}
	// tcp_dst must include the three service ports and a fresh value.
	havePorts := make(map[uint64]bool)
	for _, v := range dom["tcp_dst"] {
		havePorts[v] = true
	}
	for _, p := range []uint64{80, 443, 22} {
		if !havePorts[p] {
			t.Errorf("tcp_dst domain missing %d", p)
		}
	}
	if len(dom["tcp_dst"]) < 4 {
		t.Errorf("tcp_dst domain has no fresh value: %v", dom["tcp_dst"])
	}
	// Action attributes do not get domains.
	if _, ok := dom["out"]; ok {
		t.Errorf("action attribute in domain")
	}
}

func TestDomainSkipsLinkAttrs(t *testing.T) {
	tab := mat.New("T", mat.Schema{mat.F(mat.MetaPrefix+"_svc", 16), mat.F("a", 8), mat.A("out", 8)})
	tab.Add(mat.Exact(1, 16), mat.Exact(2, 8), mat.Exact(3, 8))
	dom := DomainOf(tab)
	if _, ok := dom[mat.MetaPrefix+"_svc"]; ok {
		t.Errorf("link attribute in domain")
	}
	if _, ok := dom["a"]; !ok {
		t.Errorf("regular field missing from domain")
	}
}

func TestDomainEachExhaustive(t *testing.T) {
	dom := Domain{"a": {1, 2}, "b": {10, 20, 30}}
	if dom.Size() != 6 {
		t.Fatalf("Size = %d, want 6", dom.Size())
	}
	var n int
	exhaustive, err := dom.Each(100, func(r mat.Record) error {
		n++
		if r["a"] == 0 || r["b"] == 0 {
			t.Fatalf("incomplete record %v", r)
		}
		return nil
	})
	if err != nil || !exhaustive || n != 6 {
		t.Fatalf("Each: exhaustive=%v n=%d err=%v", exhaustive, n, err)
	}
}

func TestDomainEachSampled(t *testing.T) {
	dom := Domain{}
	for _, f := range []string{"a", "b", "c", "d", "e", "f"} {
		vals := make([]uint64, 10)
		for i := range vals {
			vals[i] = uint64(i)
		}
		dom[f] = vals
	}
	// 10^6 product, limit 1000 → sampling.
	var n int
	exhaustive, err := dom.Each(1000, func(r mat.Record) error {
		n++
		return nil
	})
	if err != nil || exhaustive || n != 1000 {
		t.Fatalf("sampled Each: exhaustive=%v n=%d err=%v", exhaustive, n, err)
	}
}

func TestDomainEachEmpty(t *testing.T) {
	var n int
	exhaustive, err := Domain{}.Each(10, func(r mat.Record) error {
		n++
		return nil
	})
	if err != nil || !exhaustive || n != 1 {
		t.Fatalf("empty domain: exhaustive=%v n=%d err=%v", exhaustive, n, err)
	}
}

func TestEquivalentPipelinesAgree(t *testing.T) {
	uni := mat.SingleTable(fig1a())
	dec := fig1b()
	cex, exhaustive, err := EquivalentPipelines(uni, dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cex != nil {
		t.Fatalf("unexpected divergence: %v", cex)
	}
	if !exhaustive {
		t.Errorf("expected exhaustive probing")
	}
}

func TestEquivalentPipelinesFindsDivergence(t *testing.T) {
	uni := mat.SingleTable(fig1a())
	bad := fig1b()
	// Corrupt one backend assignment.
	bad.Stages[2].Table.Entries[1][1] = mat.Exact(42, 16)
	cex, _, err := EquivalentPipelines(uni, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatalf("corrupted pipeline reported equivalent")
	}
	// The counterexample must actually diverge.
	ra, _ := uni.Eval(cex.Input)
	rb, _ := bad.Eval(cex.Input)
	if ra.Observable().Equal(rb.Observable()) {
		t.Fatalf("reported counterexample does not diverge")
	}
	if cex.Error() == "" {
		t.Errorf("empty error rendering")
	}
}

func TestEquivalentPipelinesDetectsDropDifference(t *testing.T) {
	uni := mat.SingleTable(fig1a())
	// Remove the SSH service: packets to 192.0.2.3:22 now drop.
	smaller := fig1a()
	smaller.Entries = smaller.Entries[:5]
	cex, _, err := EquivalentPipelines(uni, mat.SingleTable(smaller), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cex == nil {
		t.Fatalf("missing-entry pipeline reported equivalent")
	}
}

func TestEquivalentPoliciesDivergence(t *testing.T) {
	p := Assign{Field: "out", Value: 1}
	q := Assign{Field: "out", Value: 2}
	dom := Domain{"a": {0}}
	cex, _, err := EquivalentPolicies(p, q, dom, 0)
	if err != nil || cex == nil {
		t.Fatalf("divergent policies reported equivalent (err=%v)", err)
	}
	cex2, _, err := EquivalentPolicies(p, p, dom, 0)
	if err != nil || cex2 != nil {
		t.Fatalf("identical policies reported divergent (err=%v)", err)
	}
}

func TestOutputSetEqual(t *testing.T) {
	a := []mat.Record{{"x": 1}, {"x": 2}}
	b := []mat.Record{{"x": 2}, {"x": 1}}
	if !OutputSetEqual(a, b) {
		t.Errorf("order-insensitive equality failed")
	}
	if OutputSetEqual(a, b[:1]) {
		t.Errorf("different sizes reported equal")
	}
	if OutputSetEqual(a, []mat.Record{{"x": 1}, {"x": 3}}) {
		t.Errorf("different contents reported equal")
	}
}

func TestObservableOutputs(t *testing.T) {
	rs := []mat.Record{
		{"out": 1, mat.GotoAttr: 3},
		{"out": 1, mat.MetaPrefix + "_t": 9},
	}
	obs := ObservableOutputs(rs)
	if len(obs) != 1 {
		t.Fatalf("link-attr-only differences not merged: %v", obs)
	}
	if _, ok := obs[0][mat.GotoAttr]; ok {
		t.Errorf("link attr survived projection")
	}
}

// TestProbeDoesNotAllocate guards the slot core: evaluating both pipelines
// on one record and comparing their observables costs no allocation, and a
// whole enumeration allocates a fixed handful (its closures), however many
// records it walks.
func TestProbeDoesNotAllocate(t *testing.T) {
	uni, dec := mat.SingleTable(fig1a()), fig1b()
	dom := DomainOfPipelines(uni, dec)
	pr := newProber(dom, []*mat.Pipeline{uni, dec})
	for i, name := range pr.names {
		pr.in.Val[pr.at[i]] = dom[name][len(dom[name])/2]
	}
	if n := testing.AllocsPerRun(1000, func() {
		if k, err := pr.probe(); k != 0 || err != nil {
			t.Fatalf("probe: diverged=%d err=%v", k, err)
		}
	}); n != 0 {
		t.Errorf("one probe allocates %v times, want 0", n)
	}

	records := 0
	walk := func() {
		records = 0
		_, err := dom.each(DefaultProbeLimit, pr.names,
			func(i int, v uint64) { pr.in.Val[pr.at[i]] = v },
			func() error {
				records++
				_, err := pr.probe()
				return err
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, walk); n > 4 || records < 100 {
		t.Errorf("enumerating %d records allocates %v times, want a constant handful", records, n)
	}
}

// TestProbeComparesEveryPipelineWithTheFirst: Probe over three pipelines
// names the one that diverges, and counts only the records all agreed on.
func TestProbeComparesEveryPipelineWithTheFirst(t *testing.T) {
	uni := mat.SingleTable(fig1a())
	bad := fig1b()
	bad.Stages[2].Table.Entries[1][1] = mat.Exact(42, 16)
	dom := DomainOfPipelines(uni, bad)

	res, err := Probe(dom, 0, uni, fig1b(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex == nil || res.Diverged != 2 || res.Agreed >= dom.Size() {
		t.Fatalf("Probe = %+v, want a counterexample from pipeline 2 before the domain's %d records ran out", res, dom.Size())
	}
	ok, err := Probe(dom, 0, uni, fig1b())
	if err != nil || ok.Cex != nil || !ok.Exhaustive || ok.Agreed != dom.Size() {
		t.Fatalf("Probe on equivalent pipelines = %+v, %v; want all %d records agreed", ok, err, dom.Size())
	}
	sampled, err := Probe(dom, 10, uni, fig1b())
	if err != nil || sampled.Cex != nil || sampled.Exhaustive || sampled.Agreed != 10 {
		t.Fatalf("Probe under a limit of 10 = %+v, %v; want a sample of 10", sampled, err)
	}
}
