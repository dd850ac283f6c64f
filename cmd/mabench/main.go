// Command mabench regenerates the paper's evaluation artifacts — every
// table and figure plus the ablations and correctness smokes indexed in
// DESIGN.md — on the switch models of this repository. The experiments are
// the entries of bench.Experiments(); `mabench -h` lists them.
//
// Usage:
//
//	mabench                            # -experiment all: every entry but soak
//	mabench -experiment static         # Table 1
//	mabench -experiment reactive       # Fig. 4
//	mabench -experiment soak -duration 60s
//
// -quick trades measurement accuracy for speed (used by the smoke tests).
// -workers, -fabric and -duration size the parallel/schemas, fabricchurn
// and soak experiments. Speed claims are not made from mabench output: the
// repo benchmark (benchmark/run.sh) is the yardstick.
//
// Observability (see the README's "Observability" section): -trace-sample
// N prints paired per-packet pipeline witnesses (universal vs goto) after
// the experiments, failing on any verdict disagreement; -metrics-addr
// serves net/http/pprof during the run; -cpuprofile captures a CPU profile
// (`make profile`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"manorm/internal/bench"
	"manorm/internal/cliflags"
	"manorm/internal/telemetry"
)

func main() {
	cfg := bench.DefaultConfig()
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		quick      = flag.Bool("quick", false, "short measurement loops")
		services   = flag.Int("services", cfg.Services, "number of services (N)")
		backends   = flag.Int("backends", cfg.Backends, "backends per service (M)")
		seed       = flag.Int64("seed", cfg.Seed, "workload seed")
		workers    = flag.Int("workers", cfg.Workers, "max workers for the parallel and schemas experiments")
		fabricN    = flag.Int("fabric", cfg.Fabric, "switch count for the fabric-churn experiment")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this `file` (see make profile)")
		duration   = flag.Duration("duration", 0, "soak experiment length (0 keeps the 60s default)")
	)
	obs := cliflags.RegisterObservability(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Services = *services
	cfg.Backends = *backends
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Fabric = *fabricN
	cfg.Duration = *duration
	if cfg.Workers < 1 {
		fmt.Fprintln(os.Stderr, "mabench: -workers must be >= 1")
		os.Exit(2)
	}

	// The metrics endpoint of a batch run buys live pprof profiling of the
	// measurement loops.
	if srv, err := obs.Serve(telemetry.NewRegistry()); err != nil {
		fmt.Fprintln(os.Stderr, "mabench:", err)
		os.Exit(1)
	} else if srv != nil {
		fmt.Fprintf(os.Stderr, "mabench: metrics and pprof on http://%s\n", srv.Addr)
		defer srv.Close()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mabench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mabench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	err := run(os.Stdout, *experiment, cfg)
	if err == nil {
		err = traceDemo(os.Stdout, cfg, obs.TraceSample)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mabench:", err)
		os.Exit(1)
	}
}

// usage prints the experiment list from the registry, then the flags.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintln(out, "usage: mabench [flags]\n\nexperiments (-experiment NAME; \"all\" runs those marked *):")
	for _, e := range bench.Experiments() {
		mark := " "
		if e.InAll {
			mark = "*"
		}
		fmt.Fprintf(out, "  %s %-12s %s\n", mark, e.Name, e.Doc)
	}
	fmt.Fprintln(out, "\nflags:")
	flag.PrintDefaults()
}

// run executes the named registry entry, or every InAll entry for "all".
func run(w io.Writer, name string, cfg bench.Config) error {
	all := name == "all"
	found := false
	for _, e := range bench.Experiments() {
		if e.Name != name && !(all && e.InAll) {
			continue
		}
		found = true
		if err := e.Run(w, cfg); err != nil {
			return err
		}
		if all {
			fmt.Fprintln(w)
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (see mabench -h)", name)
	}
	return nil
}

// traceDemo prints sampled per-packet witness pairs — the same packet
// explained through the universal table and the goto-decomposed pipeline
// — and fails if any pair disagrees on the verdict (Theorem 1 violated at
// runtime).
func traceDemo(w io.Writer, cfg bench.Config, every int) error {
	if every <= 0 {
		return nil
	}
	pairs, err := bench.TraceWitnesses(cfg, every, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsampled pipeline witnesses (every %d packets, universal vs goto):\n", every)
	for _, p := range pairs {
		fmt.Fprint(w, p.Universal.String())
		fmt.Fprint(w, p.Decomposed.String())
		if !p.Agree {
			return fmt.Errorf("witness verdicts disagree: universal %s vs decomposed %s",
				p.Universal.Verdict(), p.Decomposed.Verdict())
		}
		fmt.Fprintf(w, "  verdicts agree: %s\n", p.Universal.Verdict())
	}
	return nil
}
