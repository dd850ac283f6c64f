// Command mafuzz drives the differential fuzzing subsystem
// (internal/difftest): it checks the registry's properties on seeded
// generated inputs of their shapes, on named planted inputs, or on the
// committed corpus. A divergence is printed, shrunk to a minimal
// reproducer naming its property and kind, and written to the -corpus
// directory; the exit status is non-zero.
//
// Usage:
//
//	mafuzz -props all -seed 1                 # each shape for its own budget
//	mafuzz -props relational -duration 500x   # 500 generated inputs
//	mafuzz -props incremental -duration 10m   # a 10-minute budget
//	mafuzz -props forwarding/rematch-hazard -corpus DIR   # a planted input:
//	                                          # it must diverge with its kind
//	mafuzz -replay -corpus DIR                # each reproducer must still
//	                                          # show its recorded kind
//
// `mafuzz -h` lists the properties and planted inputs by shape, with each
// shape's default budget.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"manorm/internal/difftest"
)

// options carries the parsed flags through run.
type options struct {
	props, budget, corpus string
	seed                  int64
	replay                bool
}

func main() {
	var o options
	flag.StringVar(&o.props, "props", "all", "comma-separated properties, <property>/<planted input> entries, or all")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; iteration i checks the input of seed+i (and a plant's seed)")
	flag.StringVar(&o.budget, "duration", "", "budget per shape: a duration (30s) or an iteration count (250x); default each shape's own")
	flag.StringVar(&o.corpus, "corpus", "", "corpus directory: shrunk reproducers are written here, and read with -replay")
	flag.BoolVar(&o.replay, "replay", false, "replay every corpus file instead of fuzzing")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		// Every input is a flag: a directory after -replay is not the
		// corpus, and must not silently replay the default one.
		fmt.Fprintf(os.Stderr, "mafuzz: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "mafuzz:", err)
		os.Exit(1)
	}
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: mafuzz [flags]\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, "\nproperties and planted inputs by shape (default budget):\n")
	for _, in := range difftest.Shapes() {
		fmt.Fprintf(out, "  %s (%s):", in.Name, in.Budget)
		for _, p := range difftest.Properties() {
			if p.Input == in {
				fmt.Fprintf(out, " %s", p.Name)
			}
		}
		for _, pl := range in.Plants {
			fmt.Fprintf(out, " %s/%s", pl.Property, pl.Name)
		}
		fmt.Fprintln(out)
	}
}

// run fuzzes, plants or replays, and returns an error when the run must
// fail: a divergence while fuzzing, none while planting, a lost one while
// replaying.
func run(w io.Writer, o options) error {
	cfg := difftest.DefaultConfig()
	if o.replay {
		return replay(w, o.corpus, cfg)
	}
	sel := make(map[string]bool)
	for _, name := range strings.Split(o.props, ",") {
		prop, plant, _ := strings.Cut(name, "/")
		p, ok := difftest.Lookup(prop)
		switch {
		case name == "all":
			for _, p := range difftest.Properties() {
				sel[p.Name] = true
			}
		case !ok:
			return fmt.Errorf("unknown property %q (see -h)", prop)
		case plant == "":
			sel[prop] = true
		default:
			// A planted input must diverge with its recorded kind.
			i := slices.IndexFunc(p.Input.Plants, func(pl difftest.Plant) bool { return pl.Property == prop && pl.Name == plant })
			if i < 0 {
				return fmt.Errorf("property %s has no planted input %q (see -h)", prop, plant)
			}
			pl := p.Input.Plants[i]
			in, err := pl.New(o.seed)
			if err != nil {
				return err
			}
			divs, _, err := difftest.Run(in, []difftest.Property{p}, cfg)
			if err != nil {
				return err
			}
			if !difftest.Reproduces(divs, pl.Kind) {
				return fmt.Errorf("planted %s (seed %d) did NOT show [%s] — the detector is broken: %v", name, o.seed, pl.Kind, divs)
			}
			fmt.Fprintf(w, "planted %s (seed %d) diverged as it must:\n", name, o.seed)
			if err := keep(w, o.corpus, in, divs, prop, pl.Kind, cfg); err != nil {
				return err
			}
		}
	}
	var failed []string
	for _, in := range difftest.Shapes() {
		var props []difftest.Property
		for _, p := range difftest.Properties() {
			if p.Input == in && sel[p.Name] {
				props = append(props, p)
			}
		}
		if len(props) == 0 {
			continue
		}
		if n, err := fuzz(w, in, props, o, cfg); err != nil {
			return err
		} else if n > 0 {
			failed = append(failed, fmt.Sprintf("%d %s inputs", n, in.Name))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("diverged: %s", strings.Join(failed, ", "))
	}
	return nil
}

// fuzz checks the shape's generated inputs for its budget, keeps a
// reproducer of each failing one, and prints a summary of what it
// checked; it returns the number of failing inputs.
func fuzz(w io.Writer, in *difftest.Shape, props []difftest.Property, o options, cfg difftest.Config) (int, error) {
	budget := cmp.Or(o.budget, in.Budget)
	var iters int
	var dur time.Duration
	var err error
	if n, ok := strings.CutSuffix(budget, "x"); ok {
		iters, err = strconv.Atoi(n)
	} else {
		dur, err = time.ParseDuration(budget)
	}
	if err != nil || iters <= 0 && dur <= 0 {
		return 0, fmt.Errorf("-duration %q: want a duration (30s) or an iteration count (250x)", budget)
	}
	start, tally := time.Now(), make(map[string]int)
	n, divergent := 0, 0
	for ; (iters == 0 || n < iters) && (dur == 0 || time.Since(start) < dur); n++ {
		seed := o.seed + int64(n)
		p := in.Generate(seed)
		divs, t, err := difftest.Run(p, props, cfg)
		if err != nil {
			return 0, fmt.Errorf("%s seed %d: %w", in.Name, seed, err)
		}
		for k, v := range t {
			tally[k] += v
		}
		// Any divergence fails the input, except a genuine race (non-confluent).
		if i := slices.IndexFunc(divs, func(d difftest.Divergence) bool { return d.Kind != difftest.KindNonConfluent }); i >= 0 {
			divergent++
			fmt.Fprintf(w, "%s seed %d DIVERGED:\n", in.Name, seed)
			if err := keep(w, o.corpus, p, divs, divs[i].Property, divs[i].Kind, cfg); err != nil {
				return 0, err
			}
		}
	}
	var counts, names []string
	for k := range tally {
		counts = append(counts, k)
	}
	slices.Sort(counts)
	for i, k := range counts {
		counts[i] = fmt.Sprintf("%d %s", tally[k], k)
	}
	for _, p := range props {
		names = append(names, p.Name)
	}
	el := time.Since(start)
	fmt.Fprintf(w, "mafuzz: %s [%s]: %d inputs (%s) in %v (%.1f/s): %d divergent\n", in.Name, strings.Join(names, " "),
		n, strings.Join(counts, ", "), el.Round(time.Millisecond), float64(n)/el.Seconds(), divergent)
	return divergent, nil
}

// keep prints the divergences, then shrinks the input on prop and kind
// and writes the reproducer to the corpus directory, if there is one.
func keep(w io.Writer, dir string, p *difftest.Program, divs []difftest.Divergence, prop, kind string, cfg difftest.Config) error {
	for _, d := range divs {
		fmt.Fprintf(w, "  %s\n", d)
	}
	if dir == "" {
		return nil
	}
	pr, _ := difftest.Lookup(prop)
	s := difftest.Shrink(p, pr, kind, cfg)
	path, err := difftest.WriteCorpus(dir, s, pr, kind)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  shrunk %d -> %d (attrs+entries+inputs+mods+steps): %s\n", p.Size(), s.Size(), path)
	return nil
}

// replay re-runs every corpus reproducer's property on its input; each
// must still show the kind recorded when it was written, or nothing at
// all for a reproducer of a fixed bug (difftest.KindFixed).
func replay(w io.Writer, dir string, cfg difftest.Config) error {
	files, err := difftest.CorpusFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return errors.New("-replay needs a -corpus directory holding reproducers")
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
			fmt.Fprintf(w, "%s: LOST its [%s] verdict (got %v)\n", f, kind, divs)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d reproducers no longer reproduce", bad, len(files))
	}
	return nil
}
