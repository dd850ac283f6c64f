// Command mafuzz drives the differential fuzzing subsystem
// (internal/difftest): it generates seeded random match-action programs,
// executes every representation the normalizer can produce for them on
// every switch model, and cross-checks all outputs packet by packet,
// against the relational semantics and against the NetKAT oracle. Any
// divergence is shrunk to a minimal reproducer and written to the corpus
// directory; the exit status is non-zero.
//
// Usage:
//
//	mafuzz -seed 1 -iters 2000              # fixed iteration budget
//	mafuzz -seed 1 -duration 30s            # time budget (the CI smoke stage)
//	mafuzz -plant-caveat -corpus DIR        # Fig. 3 demo: plant the forbidden
//	                                        # decomposition; it MUST diverge,
//	                                        # and the minimized reproducer is
//	                                        # written to DIR
//	mafuzz -replay -corpus DIR              # re-execute every reproducer in
//	                                        # DIR; each must still diverge
//	                                        # with its recorded kind
//	mafuzz -schema-fuzz -iters 500          # schema mode: every program gets a
//	                                        # freshly invented header schema and
//	                                        # parse graph; frames replay through
//	                                        # the compiled decoder
//	mafuzz -plant-schema-hazard -corpus DIR # the rematch hazard expressed over
//	                                        # the VXLAN schema: must diverge at
//	                                        # the compiled layers only
//	mafuzz -confluence-fuzz -iters 250      # confluence mode: every seed draws a
//	                                        # base table plus two concurrent
//	                                        # flow-mod batches; the semantic
//	                                        # confluence verifier's verdict is
//	                                        # cross-checked against brute-force
//	                                        # interleaving on the NetKAT oracle.
//	                                        # Genuine non-confluence is counted;
//	                                        # only verifier-vs-brute-force
//	                                        # disagreement fails the run
//	mafuzz -plant-confluence -corpus DIR    # plant two racing adds of one key on
//	                                        # the rematch-hazard table: the pair
//	                                        # MUST be flagged non-confluent and
//	                                        # the reproducer is written to DIR
//	mafuzz -incremental-fuzz -duration 20s  # incremental mode: every seed's
//	                                        # universal, metadata and goto forms
//	                                        # sit behind an agent on every model
//	                                        # and take seeded flow-mod batches;
//	                                        # after every barrier the commit
//	                                        # verdict, the forwarding and the
//	                                        # installed shape must equal a
//	                                        # from-scratch check and Install
//
// The committed reproducers live in internal/difftest/testdata/corpus and
// are replayed by `go test ./internal/difftest` on every run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"manorm/internal/difftest"
	"manorm/internal/switches"
)

// options carries the parsed flags through run.
type options struct {
	seed     int64
	iters    int
	duration time.Duration
	corpus   string
	models   []string
	plant    bool
	hazard   bool
	schema   bool
	schemaHz bool
	conflFz  bool
	conflPl  bool
	incrFz   bool
	replay   bool
	verbose  bool
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "base seed; iteration i runs program seed+i")
		iters    = flag.Int("iters", 0, "iteration budget (default 1000 when no -duration)")
		duration = flag.Duration("duration", 0, "time budget; stops after the current program")
		corpus   = flag.String("corpus", "", "corpus directory for reproducers (write on divergence, read with -replay)")
		models   = flag.String("models", strings.Join(switches.ModelNames(), ","), "comma-separated switch models to execute on")
		plant    = flag.Bool("plant-caveat", false, "plant the paper's Fig. 3 action-to-match decomposition: the run fails unless it diverges; the shrunk reproducer goes to -corpus")
		hazard   = flag.Bool("plant-hazard", false, "plant the set-field/rematch hazard (rewrite a field a later stage re-matches): must diverge at the compiled layers only")
		schema   = flag.Bool("schema-fuzz", false, "fuzz schema-mode programs: each seed invents a header schema and parse graph and the frames replay through its compiled decoder")
		schemaHz = flag.Bool("plant-schema-hazard", false, "plant the rematch hazard over the VXLAN schema: must diverge at the compiled layers only")
		conflFz  = flag.Bool("confluence-fuzz", false, "fuzz concurrent flow-mod batch pairs: the confluence verifier's verdict must agree with brute-force interleaving on every seed")
		conflPl  = flag.Bool("plant-confluence", false, "plant two racing adds of the same key on the rematch-hazard table: must be flagged non-confluent")
		incrFz   = flag.Bool("incremental-fuzz", false, "fuzz incremental barrier commits: after every barrier the agent's verdict, the switch's forwarding and its installed shape must equal a from-scratch check and a fresh Install")
		replay   = flag.Bool("replay", false, "replay every corpus file instead of fuzzing")
		verbose  = flag.Bool("v", false, "log every program")
	)
	flag.Parse()

	opts := options{
		seed: *seed, iters: *iters, duration: *duration,
		corpus: *corpus, plant: *plant, hazard: *hazard,
		schema: *schema, schemaHz: *schemaHz, conflFz: *conflFz, conflPl: *conflPl, incrFz: *incrFz,
		replay: *replay, verbose: *verbose,
	}
	for _, m := range strings.Split(*models, ",") {
		if m = strings.TrimSpace(m); m != "" {
			opts.models = append(opts.models, m)
		}
	}
	if opts.iters == 0 && opts.duration == 0 {
		opts.iters = 1000
	}

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "mafuzz:", err)
		os.Exit(1)
	}
}

// run dispatches to the selected mode and returns an error when the run
// must fail (divergence while fuzzing, no divergence while planting, lost
// divergence while replaying).
func run(w io.Writer, opts options) error {
	cfg := difftest.DefaultExecConfig()
	cfg.Models = opts.models
	switch {
	case opts.replay:
		return runReplay(w, opts, cfg)
	case opts.conflFz:
		return runConfluenceFuzz(w, opts, cfg)
	case opts.conflPl:
		return runPlantConfluence(w, opts, cfg)
	case opts.incrFz:
		return runIncrementalFuzz(w, opts, cfg)
	case opts.plant || opts.hazard || opts.schemaHz:
		return runPlant(w, opts, cfg)
	default:
		return runFuzz(w, opts, cfg)
	}
}

// runFuzz is the main loop: generate, execute, and on divergence shrink
// and persist.
func runFuzz(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	start := time.Now()
	divergent := 0
	programs := 0
	packets := 0
	for i := 0; ; i++ {
		if opts.iters > 0 && i >= opts.iters {
			break
		}
		if opts.duration > 0 && time.Since(start) >= opts.duration {
			break
		}
		seed := opts.seed + int64(i)
		var p *difftest.Program
		if opts.schema {
			p = difftest.GenerateSchema(seed, difftest.DefaultGenConfig())
		} else {
			p = difftest.Generate(seed, difftest.DefaultGenConfig())
		}
		programs++
		packets += p.NumInputs()
		divs, err := difftest.Execute(p, cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if opts.verbose {
			fmt.Fprintf(w, "seed %d: %d entries, %d packets, %d divergences\n",
				seed, len(p.Table.Entries), p.NumInputs(), len(divs))
		}
		if len(divs) == 0 {
			continue
		}
		divergent++
		fmt.Fprintf(w, "seed %d DIVERGED:\n", seed)
		for _, d := range divs {
			fmt.Fprintf(w, "  %s\n", d)
		}
		if opts.corpus != "" {
			s := difftest.Shrink(p, cfg)
			path, err := difftest.WriteCorpus(opts.corpus, s, divs[0].Kind)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  minimized reproducer (%d attrs, %d entries, %d packets): %s\n",
				len(s.Table.Schema), len(s.Table.Entries), s.NumInputs(), path)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "mafuzz: %d programs (%d packets) on models [%s] in %v (%.1f prog/s): %d divergent\n",
		programs, packets, strings.Join(opts.models, " "), elapsed.Round(time.Millisecond),
		float64(programs)/elapsed.Seconds(), divergent)
	if divergent > 0 {
		return fmt.Errorf("%d of %d programs diverged", divergent, programs)
	}
	return nil
}

// runPlant demonstrates a known caveat end to end: build a program whose
// decomposition must misbehave (the paper's Fig. 3 action-to-match split,
// or the set-field/rematch hazard), execute it, require a divergence, and
// write the shrunk reproducer to the corpus.
func runPlant(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	var p *difftest.Program
	var err error
	what := "fig3 caveat"
	if opts.schemaHz {
		what = "schema rematch hazard"
		p, err = difftest.PlantSchemaHazard(opts.seed)
		if err != nil {
			return err
		}
	} else if opts.hazard {
		what = "rematch hazard"
		p = difftest.PlantRematchHazard(opts.seed)
	} else {
		p, err = difftest.PlantCaveat(opts.seed, difftest.DefaultGenConfig())
		if err != nil {
			return err
		}
	}
	divs, err := difftest.Execute(p, cfg)
	if err != nil {
		return err
	}
	if len(divs) == 0 {
		return fmt.Errorf("seed %d: planted %s did NOT diverge — the detector is broken", opts.seed, what)
	}
	fmt.Fprintf(w, "planted %s (seed %d) diverged as it must:\n", what, opts.seed)
	for _, d := range divs {
		fmt.Fprintf(w, "  %s\n", d)
	}
	s := difftest.Shrink(p, cfg)
	fmt.Fprintf(w, "shrunk %d -> %d (attrs+entries+packets)\n", p.Size(), s.Size())
	if opts.corpus != "" {
		path, err := difftest.WriteCorpus(opts.corpus, s, divs[0].Kind)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reproducer: %s\n", path)
	}
	return nil
}

// runConfluenceFuzz is the confluence difftest loop: every seed draws a
// base table plus two concurrent batches, and the verifier's verdict is
// cross-checked against brute-force interleaving on the NetKAT oracle.
// Genuine non-confluence ("non-confluent") is an expected, counted
// outcome of racing updates; only a verifier-vs-brute-force disagreement
// ("confluence") fails the run, and those disagreements are shrunk into
// the corpus.
func runConfluenceFuzz(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	start := time.Now()
	programs, confluent, nonConfluent, disagreements := 0, 0, 0, 0
	for i := 0; ; i++ {
		if opts.iters > 0 && i >= opts.iters {
			break
		}
		if opts.duration > 0 && time.Since(start) >= opts.duration {
			break
		}
		seed := opts.seed + int64(i)
		p := difftest.GenerateConcurrent(seed, difftest.DefaultGenConfig())
		programs++
		divs, err := difftest.Execute(p, cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		mods := 0
		for _, b := range p.Batches {
			mods += len(b)
		}
		if opts.verbose {
			fmt.Fprintf(w, "seed %d: %d entries, %d batch mods, %d divergences\n",
				seed, len(p.Table.Entries), mods, len(divs))
		}
		bad := false
		for _, d := range divs {
			switch d.Kind {
			case difftest.KindNonConfluent:
				nonConfluent++
			default:
				bad = true
			}
		}
		if !bad {
			if len(divs) == 0 {
				confluent++
			}
			continue
		}
		disagreements++
		fmt.Fprintf(w, "seed %d VERIFIER DISAGREEMENT:\n", seed)
		for _, d := range divs {
			fmt.Fprintf(w, "  %s\n", d)
		}
		if opts.corpus != "" {
			s := difftest.Shrink(p, cfg)
			path, err := difftest.WriteCorpus(opts.corpus, s, divs[0].Kind)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  minimized reproducer: %s\n", path)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "mafuzz: %d concurrent batch pairs in %v (%.1f pair/s): %d confluent, %d non-confluent, %d verifier disagreements\n",
		programs, elapsed.Round(time.Millisecond), float64(programs)/elapsed.Seconds(),
		confluent, nonConfluent, disagreements)
	if disagreements > 0 {
		return fmt.Errorf("%d of %d pairs produced verifier-vs-brute-force disagreements", disagreements, programs)
	}
	return nil
}

// incrementalSteps is how many batch rounds each representation of a
// program takes behind its agent; a rejected round adds up to two more
// barriers (the unrelated batch and the repair).
const incrementalSteps = 8

// runIncrementalFuzz is the incremental-vs-from-scratch loop: every seed's
// program is churned behind an agent on every model, and any barrier after
// which the incrementally updated switch differs from its from-scratch
// reference fails the run. A seed reproduces with -seed N -iters 1.
func runIncrementalFuzz(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	start := time.Now()
	programs, barriers, accepted, rejected, divergent := 0, 0, 0, 0, 0
	for i := 0; ; i++ {
		if opts.iters > 0 && i >= opts.iters {
			break
		}
		if opts.duration > 0 && time.Since(start) >= opts.duration {
			break
		}
		seed := opts.seed + int64(i)
		p := difftest.Generate(seed, difftest.DefaultGenConfig())
		programs++
		divs, runs, err := difftest.ExecuteIncremental(p, incrementalSteps, cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, r := range runs {
			barriers += r.Barriers
			accepted += r.Accepted
			rejected += r.Rejected
		}
		if opts.verbose {
			fmt.Fprintf(w, "seed %d: %d entries, %d runs, %d divergences\n", seed, len(p.Table.Entries), len(runs), len(divs))
		}
		if len(divs) == 0 {
			continue
		}
		divergent++
		fmt.Fprintf(w, "seed %d DIVERGED:\n", seed)
		for _, d := range divs {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "mafuzz: %d programs, %d barriers (%d accepted, %d rejected) on models [%s] in %v: %d divergent from the from-scratch reference\n",
		programs, barriers, accepted, rejected, strings.Join(opts.models, " "), elapsed.Round(time.Millisecond), divergent)
	if divergent > 0 {
		return fmt.Errorf("%d of %d programs diverged", divergent, programs)
	}
	return nil
}

// runPlantConfluence plants the canonical racing pair (two adds of the
// same fresh key with different actions on the rematch-hazard table),
// requires the non-confluent verdict, and writes the shrunk reproducer.
func runPlantConfluence(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	p := difftest.PlantConfluencePair(opts.seed)
	divs, err := difftest.Execute(p, cfg)
	if err != nil {
		return err
	}
	flagged := false
	for _, d := range divs {
		if d.Kind == difftest.KindNonConfluent {
			flagged = true
		} else {
			return fmt.Errorf("seed %d: planted racing pair produced a %s divergence — the verifier is broken: %s", opts.seed, d.Kind, d)
		}
	}
	if !flagged {
		return fmt.Errorf("seed %d: planted racing pair was NOT flagged non-confluent — the detector is broken", opts.seed)
	}
	fmt.Fprintf(w, "planted racing pair (seed %d) flagged non-confluent as it must:\n", opts.seed)
	for _, d := range divs {
		fmt.Fprintf(w, "  %s\n", d)
	}
	s := difftest.Shrink(p, cfg)
	fmt.Fprintf(w, "shrunk %d -> %d (attrs+entries+mods)\n", p.Size(), s.Size())
	if opts.corpus != "" {
		path, err := difftest.WriteCorpus(opts.corpus, s, difftest.KindNonConfluent)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reproducer: %s\n", path)
	}
	return nil
}

// runReplay re-executes every corpus reproducer; each must still diverge
// with the kind recorded when it was written, or not at all for a
// reproducer of a fixed bug (difftest.KindFixed).
func runReplay(w io.Writer, opts options, cfg difftest.ExecConfig) error {
	if opts.corpus == "" {
		return fmt.Errorf("-replay needs -corpus")
	}
	files, err := difftest.CorpusFiles(opts.corpus)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no corpus files in %s", opts.corpus)
	}
	bad := 0
	for _, f := range files {
		divs, kind, err := difftest.Replay(f, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if difftest.Reproduces(divs, kind) {
			fmt.Fprintf(w, "%s: reproduced [%s]\n", f, kind)
		} else {
			bad++
			fmt.Fprintf(w, "%s: LOST its [%s] divergence (got %v)\n", f, kind, divs)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d reproducers no longer diverge", bad, len(files))
	}
	return nil
}
