package dataplane

import (
	"math/rand"
	"testing"

	"manorm/internal/classifier"
	"manorm/internal/mat"
	"manorm/internal/packet"
)

// fig1a / fig1b: the paper's running example, as in the other packages.
func fig1a() *mat.Table {
	t := mat.New("T0", mat.Schema{
		mat.F("ip_src", 32), mat.F("ip_dst", 32), mat.F("tcp_dst", 16), mat.A("out", 16),
	})
	t.Add(mat.Prefix(0, 1, 32), mat.IPv4("192.0.2.1"), mat.Exact(80, 16), mat.Exact(1, 16))
	t.Add(mat.Prefix(0x80000000, 1, 32), mat.IPv4("192.0.2.1"), mat.Exact(80, 16), mat.Exact(2, 16))
	t.Add(mat.Prefix(0, 2, 32), mat.IPv4("192.0.2.2"), mat.Exact(443, 16), mat.Exact(3, 16))
	t.Add(mat.Prefix(0x40000000, 2, 32), mat.IPv4("192.0.2.2"), mat.Exact(443, 16), mat.Exact(4, 16))
	t.Add(mat.Prefix(0x80000000, 1, 32), mat.IPv4("192.0.2.2"), mat.Exact(443, 16), mat.Exact(5, 16))
	t.Add(mat.Any(), mat.IPv4("192.0.2.3"), mat.Exact(22, 16), mat.Exact(6, 16))
	return t
}

func fig1b() *mat.Pipeline {
	t0 := mat.New("T0", mat.Schema{mat.F("ip_dst", 32), mat.F("tcp_dst", 16), mat.A(mat.GotoAttr, 8)})
	t0.Add(mat.IPv4("192.0.2.1"), mat.Exact(80, 16), mat.Exact(1, 8))
	t0.Add(mat.IPv4("192.0.2.2"), mat.Exact(443, 16), mat.Exact(2, 8))
	t0.Add(mat.IPv4("192.0.2.3"), mat.Exact(22, 16), mat.Exact(3, 8))
	lb1 := mat.New("T1", mat.Schema{mat.F("ip_src", 32), mat.A("out", 16)})
	lb1.Add(mat.Prefix(0, 1, 32), mat.Exact(1, 16))
	lb1.Add(mat.Prefix(0x80000000, 1, 32), mat.Exact(2, 16))
	lb2 := mat.New("T2", mat.Schema{mat.F("ip_src", 32), mat.A("out", 16)})
	lb2.Add(mat.Prefix(0, 2, 32), mat.Exact(3, 16))
	lb2.Add(mat.Prefix(0x40000000, 2, 32), mat.Exact(4, 16))
	lb2.Add(mat.Prefix(0x80000000, 1, 32), mat.Exact(5, 16))
	lb3 := mat.New("T3", mat.Schema{mat.F("ip_src", 32), mat.A("out", 16)})
	lb3.Add(mat.Any(), mat.Exact(6, 16))
	return &mat.Pipeline{
		Name:  "gwlb-goto",
		Start: 0,
		Stages: []mat.Stage{
			{Table: t0, Next: -1, MissDrop: true},
			{Table: lb1, Next: -1, MissDrop: true},
			{Table: lb2, Next: -1, MissDrop: true},
			{Table: lb3, Next: -1, MissDrop: true},
		},
	}
}

// fig1cMeta: the metadata variant, exercising metadata registers.
func fig1cMeta() *mat.Pipeline {
	mn := mat.MetaPrefix + "_svc"
	t0 := mat.New("T0", mat.Schema{mat.F("ip_dst", 32), mat.F("tcp_dst", 16), mat.A(mn, 8)})
	t0.Add(mat.IPv4("192.0.2.1"), mat.Exact(80, 16), mat.Exact(0, 8))
	t0.Add(mat.IPv4("192.0.2.2"), mat.Exact(443, 16), mat.Exact(1, 8))
	t0.Add(mat.IPv4("192.0.2.3"), mat.Exact(22, 16), mat.Exact(2, 8))
	t1 := mat.New("T1", mat.Schema{mat.F(mn, 8), mat.F("ip_src", 32), mat.A("out", 16)})
	t1.Add(mat.Exact(0, 8), mat.Prefix(0, 1, 32), mat.Exact(1, 16))
	t1.Add(mat.Exact(0, 8), mat.Prefix(0x80000000, 1, 32), mat.Exact(2, 16))
	t1.Add(mat.Exact(1, 8), mat.Prefix(0, 2, 32), mat.Exact(3, 16))
	t1.Add(mat.Exact(1, 8), mat.Prefix(0x40000000, 2, 32), mat.Exact(4, 16))
	t1.Add(mat.Exact(1, 8), mat.Prefix(0x80000000, 1, 32), mat.Exact(5, 16))
	t1.Add(mat.Exact(2, 8), mat.Any(), mat.Exact(6, 16))
	return &mat.Pipeline{
		Name:  "gwlb-meta",
		Start: 0,
		Stages: []mat.Stage{
			{Table: t0, Next: 1, MissDrop: true},
			{Table: t1, Next: -1, MissDrop: true},
		},
	}
}

func tcpTo(ipSrc, ipDst uint32, port uint16) *packet.Packet {
	return packet.TCP4(0xA, 0xB, ipSrc, ipDst, 33333, port)
}

// crossValidate runs the compiled pipeline and the relational evaluator on
// the same packets and requires identical out/drop results.
func crossValidate(t *testing.T, mp *mat.Pipeline, sel TemplateSelector) {
	t.Helper()
	dp, err := Compile(mp, sel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	rng := rand.New(rand.NewSource(21))
	srcs := []uint32{0, 0x3FFFFFFF, 0x40000001, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
	dsts := []uint32{0xC0000201, 0xC0000202, 0xC0000203, 0xC0000299}
	ports := []uint16{80, 443, 22, 8080}
	for i := 0; i < 64; i++ {
		srcs = append(srcs, rng.Uint32())
	}
	for _, s := range srcs {
		for _, d := range dsts {
			for _, pt := range ports {
				pkt := tcpTo(s, d, pt)
				v, err := dp.Process(pkt, ctx)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := mp.Eval(mat.Record{"ip_src": uint64(s), "ip_dst": uint64(d), "tcp_dst": uint64(pt)})
				if err != nil {
					t.Fatal(err)
				}
				if dropped := rec[mat.DropAttr] == 1; dropped != v.Drop {
					t.Fatalf("drop mismatch on %x->%x:%d: dataplane=%v relational=%v", s, d, pt, v.Drop, dropped)
				}
				if !v.Drop && uint64(v.Port) != rec["out"] {
					t.Fatalf("port mismatch on %x->%x:%d: dataplane=%d relational=%d", s, d, pt, v.Port, rec["out"])
				}
			}
		}
	}
}

func TestProcessMatchesRelationalSemantics(t *testing.T) {
	crossValidate(t, mat.SingleTable(fig1a()), AutoTemplates)
	crossValidate(t, fig1b(), AutoTemplates)
	crossValidate(t, fig1cMeta(), AutoTemplates)
	// And with the representation-agnostic ternary datapath.
	crossValidate(t, fig1b(), FixedTemplate(classifier.ForceTernary))
	crossValidate(t, fig1cMeta(), FixedTemplate(classifier.ForceTupleSpace))
}

func TestTemplateSelectionPerStage(t *testing.T) {
	// The ESwitch mechanism: the universal table compiles to ternary; the
	// goto pipeline's first stage to exact and the per-tenant stages to
	// LPM.
	uni, err := Compile(mat.SingleTable(fig1a()), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if got := uni.Templates(); got[0] != "ternary" {
		t.Errorf("universal template = %v, want ternary", got)
	}
	dec, err := Compile(fig1b(), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	// The catch-all single-entry tenant table (T3) degenerates to an
	// exact matcher with its only column masked out — even cheaper than a
	// trie.
	want := []string{"exact", "lpm", "lpm", "exact"}
	got := dec.Templates()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d template = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCounters(t *testing.T) {
	dp, err := Compile(mat.SingleTable(fig1a()), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	for i := 0; i < 5; i++ {
		if _, err := dp.Process(tcpTo(0x01000000, 0xC0000201, 80), ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := dp.Counters(0)[0]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := dp.Counters(0)[1]; got != 0 {
		t.Errorf("untouched counter = %d", got)
	}
	dp.ResetCounters()
	if dp.Counters(0)[0] != 0 {
		t.Errorf("reset did not zero counters")
	}
	if n := len(dp.Counters(0)); n != 6 {
		t.Errorf("stage 0 has %d counters, want 6", n)
	}
}

func TestTablesTraversed(t *testing.T) {
	uni, _ := Compile(mat.SingleTable(fig1a()), AutoTemplates)
	dec, _ := Compile(fig1b(), AutoTemplates)
	ctxU, ctxD := uni.NewCtx(), dec.NewCtx()
	pkt := tcpTo(0x01000000, 0xC0000201, 80)
	vu, _ := uni.Process(pkt, ctxU)
	vd, _ := dec.Process(tcpTo(0x01000000, 0xC0000201, 80), ctxD)
	if vu.Tables != 1 || vd.Tables != 2 {
		t.Errorf("tables traversed: universal=%d decomposed=%d, want 1 and 2", vu.Tables, vd.Tables)
	}
}

func TestDecTTLAndSetField(t *testing.T) {
	tab := mat.New("L3", mat.Schema{
		mat.F("ip_dst", 32), mat.A("mod_ttl", 8), mat.A("mod_smac", 48), mat.A("mod_dmac", 48), mat.A("out", 16),
	})
	tab.Add(mat.IPv4Prefix("10.0.0.0", 8), mat.Exact(1, 8), mat.Exact(0xAA, 48), mat.Exact(0xBB, 48), mat.Exact(3, 16))
	dp, err := Compile(mat.SingleTable(tab), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	pkt := tcpTo(1, 0x0A000001, 80)
	pkt.TTL = 64
	v, err := dp.Process(pkt, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Drop || v.Port != 3 {
		t.Fatalf("verdict = %+v", v)
	}
	if pkt.TTL != 63 {
		t.Errorf("TTL = %d, want 63", pkt.TTL)
	}
	if pkt.EthSrc != 0xAA || pkt.EthDst != 0xBB {
		t.Errorf("MACs not rewritten: %x/%x", pkt.EthSrc, pkt.EthDst)
	}
}

func TestMissOnAbsentField(t *testing.T) {
	// A VLAN match against an untagged packet is a miss.
	tab := mat.New("V", mat.Schema{mat.F("vlan", 12), mat.A("out", 16)})
	tab.Add(mat.Exact(5, 12), mat.Exact(1, 16))
	dp, err := Compile(mat.SingleTable(tab), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	v, err := dp.Process(tcpTo(1, 2, 80), dp.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Drop {
		t.Errorf("untagged packet matched a VLAN entry")
	}
}

func TestCompileRejectsWideTables(t *testing.T) {
	sch := mat.Schema{}
	for i := 0; i < 17; i++ {
		sch = append(sch, mat.F(string(rune('a'+i)), 8))
	}
	sch = append(sch, mat.A("out", 8))
	tab := mat.New("wide", sch)
	if _, err := Compile(mat.SingleTable(tab), AutoTemplates); err == nil {
		t.Errorf("17-column table accepted")
	}
}

func TestCompileRejectsInvalidPipeline(t *testing.T) {
	p := &mat.Pipeline{Name: "bad"}
	if _, err := Compile(p, AutoTemplates); err == nil {
		t.Errorf("empty pipeline compiled")
	}
}

func TestGotoCycleDetectedAtRuntime(t *testing.T) {
	t0 := mat.New("T0", mat.Schema{mat.F("ip_dst", 32), mat.A(mat.GotoAttr, 8)})
	t0.Add(mat.Any(), mat.Exact(0, 8))
	p := &mat.Pipeline{Stages: []mat.Stage{{Table: t0, Next: -1, MissDrop: true}}}
	dp, err := Compile(p, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Process(tcpTo(1, 2, 3), dp.NewCtx()); err == nil {
		t.Errorf("goto cycle not detected")
	}
}

// The per-pipeline processing cost is what the switch models measure;
// keep an eye on allocation-freedom here.
func BenchmarkProcessUniversal(b *testing.B) { benchProcess(b, mat.SingleTable(fig1a())) }
func BenchmarkProcessGoto(b *testing.B)      { benchProcess(b, fig1b()) }
func BenchmarkProcessMetadata(b *testing.B)  { benchProcess(b, fig1cMeta()) }

func benchProcess(b *testing.B, mp *mat.Pipeline) {
	dp, err := Compile(mp, AutoTemplates)
	if err != nil {
		b.Fatal(err)
	}
	ctx := dp.NewCtx()
	pkt := tcpTo(0x01000000, 0xC0000201, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Process(pkt, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
