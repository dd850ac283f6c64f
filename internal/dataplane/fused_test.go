package dataplane

import (
	"math/rand"
	"reflect"
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

func gwlbPacket(rng *rand.Rand, g *usecases.GwLB) *packet.Packet {
	ipSrc := uint32(rng.Uint64())
	ipDst := uint32(rng.Uint64())
	port := uint16(rng.Uint64())
	if rng.Intn(4) != 0 {
		svc := g.Services[rng.Intn(len(g.Services))]
		ipDst = svc.VIP
		if rng.Intn(8) != 0 {
			port = svc.Port
		}
	}
	return packet.TCP4(0x00aa, 0x00bb, ipSrc, ipDst, 1234, port)
}

// The fused rep's ProcessExplain must reproduce the interpreted
// pipeline's logical witness exactly — same table-hit sequence, entries,
// joins, rendered actions, verdict and depth — on every representation.
func TestFusedWitnessMatchesInterpreted(t *testing.T) {
	g := usecases.Generate(8, 4, 21)
	rng := rand.New(rand.NewSource(2))
	for _, rep := range []usecases.Representation{
		usecases.RepUniversal, usecases.RepGoto, usecases.RepMetadata, usecases.RepRematch,
	} {
		p, err := g.Build(rep)
		if err != nil {
			t.Fatal(err)
		}
		interp, err := Compile(p, AutoTemplates)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := CompileFused(p)
		if err != nil {
			t.Fatal(err)
		}
		ictx, fctx := interp.NewCtx(), fused.NewCtx()
		for trial := 0; trial < 400; trial++ {
			pkt := gwlbPacket(rng, g)
			ipkt, fpkt := *pkt, *pkt
			iv, iwit, err := interp.ProcessExplain(&ipkt, ictx)
			if err != nil {
				t.Fatal(err)
			}
			fv, fwit, err := fused.ProcessExplain(&fpkt, fctx)
			if err != nil {
				t.Fatal(err)
			}
			if iv != fv {
				t.Fatalf("%s trial %d: verdict interpreted=%+v fused=%+v", rep, trial, iv, fv)
			}
			if !reflect.DeepEqual(ipkt.Record(), fpkt.Record()) {
				t.Fatalf("%s trial %d: header mutations differ: %+v vs %+v", rep, trial, ipkt, fpkt)
			}
			if fwit.Tables != iwit.Tables || !reflect.DeepEqual(fwit.Stages, iwit.Stages) {
				t.Fatalf("%s trial %d: witness mismatch\ninterpreted: %s\nfused: %s", rep, trial, iwit, fwit)
			}
		}
	}
}

// Fused Process must agree with fused ProcessExplain (the hot path and
// the witness path share the verdict).
func TestFusedProcessMatchesExplain(t *testing.T) {
	g := usecases.Generate(8, 4, 22)
	rng := rand.New(rand.NewSource(4))
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := CompileFused(p)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := fused.NewCtx(), fused.NewCtx()
	for trial := 0; trial < 300; trial++ {
		pkt := gwlbPacket(rng, g)
		p1, p2 := *pkt, *pkt
		v1, err := fused.Process(&p1, c1)
		if err != nil {
			t.Fatal(err)
		}
		v2, _, err := fused.ProcessExplain(&p2, c2)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 || !reflect.DeepEqual(p1.Record(), p2.Record()) {
			t.Fatalf("trial %d: Process=%+v Explain=%+v", trial, v1, v2)
		}
	}
}

// A fused hit's packed verdict record must reproduce what the general
// loop computes from the rule's actions: the last output, the drop flag,
// and the view-mutating actions in order.
func TestFusedVerdictRecords(t *testing.T) {
	tab := mat.New("rw", mat.Schema{
		mat.F(packet.FieldIPDst, 32), mat.A("mod_ttl", 8), mat.A("mod_"+packet.FieldIPSrc, 32), mat.A("out", 16),
	})
	tab.Add(mat.Exact(1, 32), mat.Exact(1, 8), mat.Exact(7, 32), mat.Exact(3, 16))
	tab.Add(mat.Exact(2, 32), mat.Any(), mat.Exact(9, 32), mat.Exact(4, 16))
	tab.Add(mat.Exact(3, 32), mat.Exact(1, 8), mat.Any(), mat.Any())
	p := &mat.Pipeline{Name: "rw", Stages: []mat.Stage{{Table: tab, Next: -1, MissDrop: true}}}
	fused, err := CompileFused(p)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := Compile(p, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2, c3 := fused.NewCtx(), fused.NewCtx(), interp.NewCtx()
	for dst := uint32(0); dst <= 4; dst++ {
		pkt := packet.TCP4(0x00aa, 0x00bb, 0x0A000001, dst, 1234, 80)
		p1, p2, p3 := *pkt, *pkt, *pkt
		v1, err := fused.Process(&p1, c1)
		if err != nil {
			t.Fatal(err)
		}
		v2, _, err := fused.ProcessExplain(&p2, c2)
		if err != nil {
			t.Fatal(err)
		}
		v3, err := interp.Process(&p3, c3)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 || v1 != v3 || !reflect.DeepEqual(p1.Record(), p2.Record()) || !reflect.DeepEqual(p1.Record(), p3.Record()) {
			t.Fatalf("ip_dst %d: fused %+v %v, explain %+v %v, interpreted %+v %v", dst, v1, p1.Record(), v2, p2.Record(), v3, p3.Record())
		}
		if dst == 1 && (v1.Port != 3 || p1.IPSrc != 7 || p1.TTL != pkt.TTL-1) {
			t.Fatalf("ip_dst 1: verdict %+v, ip_src %d, ttl %d", v1, p1.IPSrc, p1.TTL)
		}
	}
}

// The fused hot path must not allocate with telemetry detached.
func TestFusedProcessZeroAlloc(t *testing.T) {
	g := usecases.Generate(20, 8, 42)
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := CompileFused(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := fused.NewCtx()
	svc := g.Services[3]
	pkt := packet.TCP4(0x01, 0x02, 0x0A000001, svc.VIP, 1234, svc.Port)
	if _, err := fused.Process(pkt, ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fused.Process(pkt, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused Process allocates %v per run, want 0", allocs)
	}
}

// CompileFused must surface the decision-structure size for stats
// readers, and Compile must delegate on the Fused hint.
func TestFusedStatsAndHint(t *testing.T) {
	g := usecases.Generate(8, 4, 23)
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	p.Fused = true
	dp, err := Compile(p, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	fs := dp.Fused()
	if fs == nil || fs.Rules == 0 || fs.Nodes == 0 || fs.Leaves == 0 {
		t.Fatalf("degenerate fused stats: %+v", fs)
	}
	if dp.Depth() != 1 || dp.Templates()[0] != "fdd" {
		t.Fatalf("fused pipeline shape: depth=%d templates=%v", dp.Depth(), dp.Templates())
	}
	interp, err := Compile(&mat.Pipeline{Name: p.Name, Stages: p.Stages, Start: p.Start}, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Fused() != nil {
		t.Fatal("interpreted pipeline reports fused stats")
	}
}

func benchPipeline(b *testing.B, rep usecases.Representation) {
	g := usecases.Generate(20, 8, 42)
	p, err := g.Build(rep)
	if err != nil {
		b.Fatal(err)
	}
	dp, err := Compile(p, AutoTemplates)
	if err != nil {
		b.Fatal(err)
	}
	ctx := dp.NewCtx()
	rng := rand.New(rand.NewSource(9))
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		svc := g.Services[rng.Intn(len(g.Services))]
		pkts[i] = packet.TCP4(1, 2, rng.Uint32(), svc.VIP, 1234, svc.Port)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.Process(pkts[i%len(pkts)], ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessGwLBGoto(b *testing.B)  { benchPipeline(b, usecases.RepGoto) }
func BenchmarkProcessGwLBFused(b *testing.B) { benchPipeline(b, usecases.RepFused) }
