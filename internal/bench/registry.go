package bench

import "io"

// Experiment is one regenerable artefact of the evaluation: a table or
// figure of the paper, an ablation, or a correctness smoke.
type Experiment struct {
	// Name is what `mabench -experiment` selects.
	Name string
	// Doc is the one-line description mabench's usage text prints.
	Doc string
	// InAll marks the experiments `-experiment all` runs.
	InAll bool
	// Run measures, renders to w and applies the experiment's own gate: a
	// non-nil error is a harness failure or a failed gate (diverged
	// fabric, soak violation).
	Run func(w io.Writer, cfg Config) error
}

// rendered adapts a (rows, error) measurement to its Render function, so
// an entry reads rendered(w, RenderX)(X(...)).
func rendered[R any](w io.Writer, render func(io.Writer, R)) func(R, error) error {
	return func(rows R, err error) error {
		if err != nil {
			return err
		}
		render(w, rows)
		return nil
	}
}

// Experiments lists every experiment in the order `-experiment all` runs
// them. The parameter grids here are the published ones (EXPERIMENTS.md).
func Experiments() []Experiment {
	return []Experiment{
		{Name: "footprint", Doc: "E1: match-action fields per representation (§2 redundancy)", InAll: true,
			Run: func(w io.Writer, cfg Config) error {
				return rendered(w, RenderFootprint)(Footprint([]int{cfg.Services}, []int{2, 4, 8, 16, 32, 64}, cfg.Seed))
			}},
		{Name: "control", Doc: "E2: entries touched per update intent (§2 controllability)", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderControl)(Control(cfg)) }},
		{Name: "monitor", Doc: "E3: counters per tenant aggregate (§2 monitorability)", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderMonitor)(Monitor(cfg)) }},
		{Name: "reactive", Doc: "Fig. 4: throughput and delay under control-plane churn (NoviFlow model)", InAll: true,
			Run: func(w io.Writer, cfg Config) error {
				return rendered(w, RenderFig4)(Fig4(DefaultUpdateRates(), cfg))
			}},
		{Name: "static", Doc: "Table 1: static rate and delay, four switches x {universal, goto, fused}", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderTable1)(Table1(cfg)) }},
		{Name: "l3", Doc: "E6: the Fig. 2 normalization chain at scale", InAll: true,
			Run: func(w io.Writer, cfg Config) error {
				return rendered(w, RenderL3)(L3Experiment([][3]int{{16, 4, 2}, {64, 8, 3}, {256, 16, 4}, {1024, 32, 8}}, cfg.Seed))
			}},
		{Name: "caveat", Doc: "E7: the Fig. 3 action-to-match rejection", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderCaveat)(Caveat()) }},
		{Name: "sdx", Doc: "E8: the appendix SDX use case (Fig. 5)", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderSDX)(SDX()) }},
		{Name: "joins", Doc: "A1: join-abstraction ablation on the ESwitch model", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderJoins)(Joins(cfg)) }},
		{Name: "depth", Doc: "A2: normalization-depth ablation (1NF/2NF/3NF on L3)", InAll: true,
			Run: func(w io.Writer, cfg Config) error {
				return rendered(w, RenderDepth)(Depth(256, 16, 4, cfg.Seed))
			}},
		{Name: "nf4", Doc: "beyond-3NF extension: multivalued-dependency split", InAll: true,
			Run: func(w io.Writer, cfg Config) error {
				return rendered(w, RenderNF4)(NF4([][3]int{{4, 4, 4}, {8, 8, 4}, {16, 8, 8}}))
			}},
		{Name: "faultchurn", Doc: "E2c: update burst under channel faults; fails unless every run ends in the fault-free state",
			InAll: true, Run: runFaultChurn},
		{Name: "fabricchurn", Doc: "E9: multi-switch fabric (-fabric members) under partitioned churn; fails unless it converges",
			InAll: true, Run: runFabricChurn},
		{Name: "parallel", Doc: "multi-core scaling over sharded workers (counts double up to -workers)", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderParallel)(ParallelTable(cfg)) }},
		{Name: "schemas", Doc: "the same measurement under the shipped VXLAN, MPLS and GTP-U schemas", InAll: true,
			Run: func(w io.Writer, cfg Config) error { return rendered(w, RenderSchemas)(SchemaTable(cfg)) }},
		// Duration-bounded by construction; excluded from "all" so the full
		// artifact run stays wall-clock bounded by the measurement configs
		// alone.
		{Name: "soak", Doc: "E10: forwarding + churn + channel faults for -duration (default 60s); fails on a drift/p99 gate violation",
			Run: runSoak},
	}
}
