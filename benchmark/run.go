package main

import (
	"fmt"
	"runtime"
	"time"
)

// defaultSeconds is the nominal measuring time of a run, the run_seconds of
// BENCHMARK.json.
const defaultSeconds = 8

// setupRepeats is how often a run sets up; setup_s is the median, so one
// slow set-up does not move it.
const setupRepeats = 3

// budget splits the nominal measuring time of a run over its timed cells.
// Every workload gives every cell the same time: a metric has one bound in
// BENCHMARK.json, so it has to be as steady on a control phase as on the
// phase a workload moves. Cells with a minimum number of passes run longer
// where one pass is long (the toolchain on `compile`).
type budget struct {
	// rounds is the number of slices every cell of the untraced pass takes:
	// slicesPerCell at the full run length, fewer on a shorter run so that
	// a slice stays long enough to mean something.
	rounds      int
	forwardCell time.Duration // each of the five throughput cells and the batch-time pass
	updateGoto  time.Duration
	updateUniv  time.Duration
	normalize   time.Duration
	verify      time.Duration
	confluence  time.Duration
	probe       time.Duration // one per-layer probe (traced run)
}

func newBudget(seconds float64) budget {
	share := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }
	rounds := int(seconds * slicesPerCell / defaultSeconds)
	if rounds > slicesPerCell {
		rounds = slicesPerCell
	}
	if rounds < 5 {
		rounds = 5
	}
	return budget{
		rounds:      rounds,
		forwardCell: share(1.0 / 12),
		updateGoto:  share(1.0 / 8),
		updateUniv:  share(1.0 / 10),
		normalize:   share(1.0 / 16),
		verify:      share(1.0 / 16),
		confluence:  share(1.0 / 16),
		probe:       share(1.0 / 80),
	}
}

// env is one set-up of a workload: inputs generated from the seed,
// programs built and installed, references computed, channels open.
type env struct {
	sc      scenario
	seed    int64
	forward *forwardPhase
	update  *updatePhase
	tool    *toolchainPhase
}

func setUp(sc scenario, seed int64) (*env, error) {
	fin, err := buildForward(sc, seed)
	if err != nil {
		return nil, fmt.Errorf("forward inputs: %w", err)
	}
	fp, err := newForwardPhase(fin)
	if err != nil {
		return nil, fmt.Errorf("forward set-up: %w", err)
	}
	tin, err := buildToolchain(sc, seed)
	if err != nil {
		return nil, fmt.Errorf("toolchain inputs: %w", err)
	}
	up, err := newUpdatePhase(sc.Update, seed)
	if err != nil {
		return nil, fmt.Errorf("update set-up: %w", err)
	}
	return &env{sc: sc, seed: seed, forward: fp, update: up, tool: newToolchainPhase(tin)}, nil
}

func (e *env) close() error { return e.update.close() }

// timedSetUp sets the workload up repeats times, keeps the last set-up and
// returns the median set-up time in seconds.
func timedSetUp(sc scenario, seed int64, repeats int) (*env, cell, error) {
	c := cell{Name: "setup_s", Unit: "s", Lower: true}
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, c, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(sc, seed); err != nil {
			return nil, c, err
		}
		c.Slices = append(c.Slices, time.Since(t0).Seconds())
	}
	c.Samples = len(c.Slices)
	c.Value = median(c.Slices)
	return e, c, nil
}

// runWorkload performs one run: the untraced pass that yields the
// end-to-end metrics, or the traced pass that yields the per-layer ones.
func runWorkload(sc scenario, seed int64, seconds float64, traced bool) (*runRecord, *tracer, error) {
	start := time.Now()
	b := newBudget(seconds)
	rec := &recorder{}
	repeats := setupRepeats
	if traced {
		repeats = 1 // set-up time is an end-to-end metric; the traced pass does not report it
	}
	e, setup, err := timedSetUp(sc, seed, repeats)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		rec.trace = newTracer(sc.Name)
		err = e.runTraced(b, rec)
	} else {
		err = e.runEndToEnd(b, rec)
		rec.cell(setup)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", sc.Name, err)
	}
	r := &runRecord{
		Workload: sc.Name, Phase: sc.Phase, Seed: seed, Seconds: seconds, Traced: traced, Loop: loopShape,
		Correct: rec.tally.failed == 0, Attempted: rec.tally.attempted, Failed: rec.tally.failed,
		Failures: rec.tally.first, Metrics: rec.values, WallS: time.Since(start).Seconds(),
	}
	return r, rec.trace, nil
}

// gcEveryRounds is how often the untraced pass forces a collection, so
// that garbage of one cell is not collected at the expense of another more
// than a few slices later.
const gcEveryRounds = 6

// sampler is a timed cell of the untraced pass. The pass runs in rounds:
// every round takes one slice of every cell, so the slices of a cell are
// spread over the whole run. This host shares its cores, and what slows it
// comes in episodes of a second or more: a cell measured in one piece is
// fast or slow as a whole, while the median of slices taken seconds apart
// reads the undisturbed rate as long as most of the run was undisturbed.
type sampler interface {
	sample(round, rounds int) error
}

func (e *env) runEndToEnd(b budget, rec *recorder) error {
	var cells []sampler
	cells = append(cells, e.forward.cells(b)...)
	cells = append(cells, e.update.cells(b)...)
	cells = append(cells, e.tool.cells(b)...)
	for r := 0; r < b.rounds; r++ {
		if r%gcEveryRounds == 0 {
			runtime.GC()
		}
		for _, c := range cells {
			if err := c.sample(r, b.rounds); err != nil {
				return err
			}
		}
	}
	if err := e.forward.finish(rec); err != nil {
		return err
	}
	if err := e.update.finish(rec); err != nil {
		return err
	}
	return e.tool.finish(rec)
}
