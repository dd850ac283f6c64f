// Top-level benchmarks: one per table/figure of the paper, delegating to
// the substrates. Run with
//
//	go test -bench=. -benchmem
//
// The custom metrics (Mpps, delay-us, fields, entries-touched) carry the
// numbers EXPERIMENTS.md records; ns/op of the packet benches is the raw
// per-packet service time of the switch model under test.
package manorm_test

import (
	"runtime"
	"testing"

	"manorm/internal/controlplane"
	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// --- Table 1: static performance --------------------------------------

// benchSwitch measures one (switch, representation) cell of Table 1 as a
// packet-processing loop.
func benchSwitch(b *testing.B, swName string, rep usecases.Representation) {
	sw, err := switches.New(swName)
	if err != nil {
		b.Fatal(err)
	}
	g := usecases.Generate(20, 8, 42)
	p, err := g.Build(rep)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Install(p); err != nil {
		b.Fatal(err)
	}
	stream := trafficgen.GwLB(g, 4096, 1.0, 43)
	frames, _ := trafficgen.Wire(stream)
	for _, f := range frames { // warm-up (OVS cache fill)
		if _, err := sw.ProcessFrame(f); err != nil {
			b.Fatal(err)
		}
	}
	// Collect the previous benchmark's garbage before timing: the
	// allocation-heavy models (record building, cache maps) otherwise
	// leak GC pressure into whichever bench runs next in the binary.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.ProcessFrame(frames[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if pm := sw.Perf(); pm.HWLineRateMpps > 0 {
		b.ReportMetric(pm.HWLineRateMpps, "Mpps")
	} else {
		b.ReportMetric(1000/nsPerPkt, "Mpps")
	}
}

func BenchmarkTable1OVSUniversal(b *testing.B)     { benchSwitch(b, "ovs", usecases.RepUniversal) }
func BenchmarkTable1OVSGoto(b *testing.B)          { benchSwitch(b, "ovs", usecases.RepGoto) }
func BenchmarkTable1ESwitchUniversal(b *testing.B) { benchSwitch(b, "eswitch", usecases.RepUniversal) }
func BenchmarkTable1ESwitchGoto(b *testing.B)      { benchSwitch(b, "eswitch", usecases.RepGoto) }
func BenchmarkTable1LagopusUniversal(b *testing.B) { benchSwitch(b, "lagopus", usecases.RepUniversal) }
func BenchmarkTable1LagopusGoto(b *testing.B)      { benchSwitch(b, "lagopus", usecases.RepGoto) }
func BenchmarkTable1NoviFlowUniversal(b *testing.B) {
	benchSwitch(b, "noviflow", usecases.RepUniversal)
}
func BenchmarkTable1NoviFlowGoto(b *testing.B) { benchSwitch(b, "noviflow", usecases.RepGoto) }

// benchSwitchBatch measures the batched hot path: a dedicated worker
// driving ProcessBatch over 64-frame batches, ns/op per packet. Comparing
// against the single-frame benches above shows the amortization of worker
// checkout and datapath revalidation.
func benchSwitchBatch(b *testing.B, swName string, rep usecases.Representation) {
	sw, err := switches.New(swName)
	if err != nil {
		b.Fatal(err)
	}
	g := usecases.Generate(20, 8, 42)
	p, err := g.Build(rep)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Install(p); err != nil {
		b.Fatal(err)
	}
	stream := trafficgen.GwLB(g, 4096, 1.0, 43)
	frames, _ := trafficgen.Wire(stream)
	const batch = 64
	worker := sw.NewWorker()
	out := make([]dataplane.Verdict, batch)
	for off := 0; off < len(frames); off += batch { // warm-up (cache fill)
		if err := worker.ProcessBatch(frames[off:off+batch], out); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; done < b.N; i++ {
		off := (i * batch) & 4095
		if err := worker.ProcessBatch(frames[off:off+batch], out); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
	b.StopTimer()
	nsPerPkt := float64(b.Elapsed().Nanoseconds()) / float64(done)
	b.ReportMetric(nsPerPkt, "ns/pkt")
	b.ReportMetric(1000/nsPerPkt, "Mpps")
}

func BenchmarkBatchOVSGoto(b *testing.B)     { benchSwitchBatch(b, "ovs", usecases.RepGoto) }
func BenchmarkBatchESwitchGoto(b *testing.B) { benchSwitchBatch(b, "eswitch", usecases.RepGoto) }
func BenchmarkBatchESwitchUniversal(b *testing.B) {
	benchSwitchBatch(b, "eswitch", usecases.RepUniversal)
}

// --- Fig. 4: reactiveness ----------------------------------------------

// benchFig4 evaluates the reactiveness model at 100 updates/s and reports
// the modeled throughput; ns/op measures the model evaluation itself (it
// is analytic).
func benchFig4(b *testing.B, rep usecases.Representation) {
	g := usecases.Generate(20, 8, 42)
	sw := switches.NewNoviFlow()
	p, err := g.Build(rep)
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Install(p); err != nil {
		b.Fatal(err)
	}
	plan, err := controlplane.PlanPortChange(g, rep, 0, 9999)
	if err != nil {
		b.Fatal(err)
	}
	entries := len(p.Stages[0].Table.Entries)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate = sw.ReactiveThroughput(100, plan.EntriesTouched, entries)
	}
	b.ReportMetric(rate, "Mpps@100upd/s")
	b.ReportMetric(float64(plan.EntriesTouched), "mods/update")
}

func BenchmarkFig4Universal(b *testing.B) { benchFig4(b, usecases.RepUniversal) }
func BenchmarkFig4Goto(b *testing.B)      { benchFig4(b, usecases.RepGoto) }

// --- E1: footprint (§2 redundancy) --------------------------------------

func BenchmarkFootprintNormalization(b *testing.B) {
	// Measures the normalizer itself on the paper-sized workload and
	// reports the footprint ratio it achieves.
	g := usecases.Generate(20, 8, 42)
	uni, err := g.Universal()
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Normalize(uni, core.Options{Target: core.NF3, Declared: g.Declared()})
		if err != nil {
			b.Fatal(err)
		}
		gp, err := core.ToGoto(res.Pipeline)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(uni.FieldCount()) / float64(gp.FieldCount())
	}
	b.ReportMetric(ratio, "uni/goto-fields")
}

// --- E2/E3: controllability & monitorability ----------------------------

func BenchmarkControlPlanUniversal(b *testing.B) { benchControlPlan(b, usecases.RepUniversal) }
func BenchmarkControlPlanGoto(b *testing.B)      { benchControlPlan(b, usecases.RepGoto) }

func benchControlPlan(b *testing.B, rep usecases.Representation) {
	g := usecases.Generate(20, 8, 42)
	var touched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := controlplane.PlanPortChange(g, rep, i%20, uint16(10000+i%1000))
		if err != nil {
			b.Fatal(err)
		}
		touched = plan.EntriesTouched
	}
	b.ReportMetric(float64(touched), "entries-touched")
}

// --- E6: the L3 pipeline at scale ---------------------------------------

func BenchmarkL3Normalize1024(b *testing.B) {
	l3 := usecases.GenerateL3(1024, 32, 8, 7)
	var fields int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Normalize(l3.Table, core.Options{Target: core.NF3, Declared: l3.Declared()})
		if err != nil {
			b.Fatal(err)
		}
		fields = res.Pipeline.FieldCount()
	}
	b.ReportMetric(float64(l3.Table.FieldCount())/float64(fields), "shrink-ratio")
}

// --- E7/E8 run as tests (pass/fail demonstrations) ----------------------

// --- A1: join abstractions on ESwitch ------------------------------------

func BenchmarkJoinESwitchMetadata(b *testing.B) { benchSwitch(b, "eswitch", usecases.RepMetadata) }
func BenchmarkJoinESwitchRematch(b *testing.B)  { benchSwitch(b, "eswitch", usecases.RepRematch) }

// --- A3: classifier templates live in internal/classifier ---------------

// --- FD mining at scale --------------------------------------------------

func BenchmarkMineGwlb160(b *testing.B) {
	// TANE on the paper-sized 160-entry universal table.
	g := usecases.Generate(20, 8, 42)
	uni, err := g.Universal()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Analyze(uni)
		if len(a.FDs) == 0 {
			b.Fatal("no dependencies mined")
		}
	}
}
