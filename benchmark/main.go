// Command benchmark is the repo's yardstick: five workloads, twelve
// end-to-end metrics with regression bounds, and a per-layer ledger timed
// from outside around the public functions of the internal/* packages.
// BENCHMARK.json at the repo root declares what it emits; README.md in this
// directory says why each workload exists and how the metrics interact.
//
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -workload all -seed 1 -trace 1 -trace-out trace.json
//	go run ./benchmark -trace-summary trace.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: table1, scale, vxlan, churn, compile or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "nominal measuring time of one run; every timed cell gets a fixed share")
	trace := fs.Int("trace", 0, "0: untraced pass, prints the end-to-end metrics; 1: traced pass, prints the per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "write the runs and the host record to this results file")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans and boundary counts to this file")
	traceSummary := fs.String("trace-summary", "", "print self time per layer per workload of a trace file, and exit")
	compare := fs.Bool("compare", false, "compare two results files given as arguments; exit 1 if the second is out of bound or any output failed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *traceSummary != "":
		if err := summarizeTrace(os.Stdout, *traceSummary); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results files"))
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareResults(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}
	if *seconds <= 0 || *runs < 1 {
		return fail(fmt.Errorf("-seconds and -runs must be positive"))
	}
	list := scenarios
	if *workload != "all" {
		sc, err := scenarioByName(*workload)
		if err != nil {
			return fail(err)
		}
		list = []scenario{sc}
	}

	pinProcs()
	results := &resultsFile{Host: describeHost()}
	h := results.Host
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %s\n%s\n", h.HostCPUs, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.GitCommit, h.Control)
	var traces []*tracer
	code := 0
	for r := 0; r < *runs; r++ {
		for _, sc := range list {
			rec, tr, err := runWorkload(sc, *seed+int64(r), *seconds, *trace == 1)
			if err != nil {
				return fail(err)
			}
			if err := printRun(os.Stdout, rec); err != nil {
				return fail(err)
			}
			if !rec.Correct {
				code = 1
			}
			results.Runs = append(results.Runs, *rec)
			if tr != nil {
				traces = append(traces, tr)
			}
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" && len(traces) > 0 {
		if err := writeTrace(*traceOut, traces); err != nil {
			return fail(err)
		}
	}
	return code
}
