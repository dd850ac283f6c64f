package dataplane

import (
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// witnessGrid is the probe set the explain tests share: service dsts and
// ports crossed with sources that exercise every load-balancer prefix.
func witnessGrid() []*packet.Packet {
	var out []*packet.Packet
	for _, s := range []uint32{0, 0x3FFFFFFF, 0x40000001, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		for _, d := range []uint32{0xC0000201, 0xC0000202, 0xC0000203, 0xC0000299} {
			for _, pt := range []uint16{80, 443, 22, 8080} {
				out = append(out, tcpTo(s, d, pt))
			}
		}
	}
	return out
}

// TestProcessExplainMatchesProcess checks that the explain path is a
// faithful mirror of the hot path: same verdict, and a stage record per
// table traversed.
func TestProcessExplainMatchesProcess(t *testing.T) {
	for _, mp := range []*mat.Pipeline{mat.SingleTable(fig1a()), fig1b(), fig1cMeta()} {
		dp, err := Compile(mp, AutoTemplates)
		if err != nil {
			t.Fatal(err)
		}
		ctx, ectx := dp.NewCtx(), dp.NewCtx()
		for _, pkt := range witnessGrid() {
			cp, ce := *pkt, *pkt
			v, err := dp.Process(&cp, ctx)
			if err != nil {
				t.Fatal(err)
			}
			ev, wit, err := dp.ProcessExplain(&ce, ectx)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Drop != v.Drop || ev.Port != v.Port || ev.Tables != v.Tables {
				t.Fatalf("%s: explain verdict %+v != process verdict %+v", mp.Name, ev, v)
			}
			if len(wit.Stages) != v.Tables {
				t.Fatalf("%s: %d stage records for %d tables", mp.Name, len(wit.Stages), v.Tables)
			}
			if wit.Drop != v.Drop || (!v.Drop && wit.Port != v.Port) {
				t.Fatalf("%s: witness verdict %s != %+v", mp.Name, wit.Verdict(), v)
			}
		}
	}
}

// TestWitnessEquivalenceAcrossRepresentations is the runtime face of
// Theorem 1: the universal table and its goto- and metadata-decomposed
// pipelines yield identical per-packet verdicts, with the witnesses
// showing each representation's join mechanism.
func TestWitnessEquivalenceAcrossRepresentations(t *testing.T) {
	uni, err := Compile(mat.SingleTable(fig1a()), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	gto, err := Compile(fig1b(), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := Compile(fig1cMeta(), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	uctx, gctx, mctx := uni.NewCtx(), gto.NewCtx(), meta.NewCtx()

	sawGoto, sawMeta := false, false
	for _, pkt := range witnessGrid() {
		cu, cg, cm := *pkt, *pkt, *pkt
		_, uw, err := uni.ProcessExplain(&cu, uctx)
		if err != nil {
			t.Fatal(err)
		}
		_, gw, err := gto.ProcessExplain(&cg, gctx)
		if err != nil {
			t.Fatal(err)
		}
		_, mw, err := meta.ProcessExplain(&cm, mctx)
		if err != nil {
			t.Fatal(err)
		}
		if uw.Verdict() != gw.Verdict() || uw.Verdict() != mw.Verdict() {
			t.Fatalf("verdicts diverge: universal=%s goto=%s metadata=%s\n%s%s%s",
				uw.Verdict(), gw.Verdict(), mw.Verdict(), uw, gw, mw)
		}
		// The universal witness is always a single table.
		if uw.Tables != 1 || len(uw.Stages) != 1 {
			t.Fatalf("universal witness has %d tables", uw.Tables)
		}
		// A forwarded packet traverses the decompositions via their join
		// mechanisms; the witnesses must name them.
		if !uw.Drop {
			if gw.Stages[0].Join != "goto" {
				t.Errorf("goto witness stage 0 join = %q", gw.Stages[0].Join)
			}
			sawGoto = true
			if mw.Stages[0].Join != "metadata" {
				t.Errorf("metadata witness stage 0 join = %q", mw.Stages[0].Join)
			}
			sawMeta = true
		}
	}
	if !sawGoto || !sawMeta {
		t.Fatal("probe grid produced no forwarded packets")
	}
}

// TestProcessNoAllocsWithoutTelemetry is the hot-path guard of the
// observability layer: a pipeline compiled WITHOUT WithTelemetry (and one
// compiled with a nil registry, the documented no-op) must process packets
// with zero heap allocations.
func TestProcessNoAllocsWithoutTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"no-option", nil},
		{"nil-registry", []Option{WithTelemetry(nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dp, err := Compile(fig1b(), AutoTemplates, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := dp.NewCtx()
			pkt := tcpTo(0x80000000, 0xC0000201, 80)
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := dp.Process(pkt, ctx); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Process allocates %v per packet", allocs)
			}

			var views []*packet.FieldView
			for _, pkt := range witnessGrid() {
				v, err := packet.DefaultDecoder().Parse(pkt.Marshal(nil))
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				for _, v := range views {
					if _, err := dp.ProcessView(v, ctx); err != nil {
						t.Fatal(err)
					}
				}
			}); allocs != 0 {
				t.Errorf("ProcessView allocates %v per batch", allocs)
			}
		})
	}
}

// TestProcessNoAllocsWithTelemetry pins the instrumented path's design
// rule: counters and histogram observations are atomic updates on
// pre-resolved instruments, so even with a live registry the per-packet
// path stays allocation-free.
func TestProcessNoAllocsWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dp, err := Compile(fig1b(), AutoTemplates, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	pkt := tcpTo(0x80000000, 0xC0000201, 80)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := dp.Process(pkt, ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("instrumented Process allocates %v per packet", allocs)
	}
	snap := reg.Snapshot()
	if v, ok := snap.Counter("pipeline.gwlb-goto.stage0.T0.lookups"); !ok || v == 0 {
		t.Errorf("lookup counter = %d,%v after instrumented run", v, ok)
	}
}
