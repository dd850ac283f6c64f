package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// slicesPerCell is the number of equal time slices a timed cell of the
// untraced pass is split into at the full run length. Slices are short (a
// 1 s cell has 17 ms slices) because what disturbs this host comes in bursts
// of milliseconds: the shorter a slice, the likelier that some slices of a
// cell run undisturbed. tracedSlices is the same for the short cells of the
// traced pass, which run in one piece.
const (
	slicesPerCell = 60
	tracedSlices  = 10
)

// clockStride is how many frames a throughput cell forwards between two
// looks at the clock. Timers never run per unit inside a throughput
// cell: at 20 Mpps a stride is ~50 µs, at 0.1 Mpps ~10 ms, both well
// under a slice.
const clockStride = 1024

// cell is the record of one timed measurement: the per-slice values, the
// number reported for them and how much work backed it.
type cell struct {
	Name string
	Unit string
	// Lower says lower values are better (a time); otherwise higher are (a
	// rate).
	Lower bool
	// Skip is the share of slices allowed to read better than the reported
	// one: 0 reports the best slice, 0.25 the quartile on the better side.
	Skip    float64
	Value   float64
	Slices  []float64
	Samples int
}

// add appends one slice to the cell and keeps the reported value current.
func (c *cell) add(value float64, samples int) {
	c.Slices = append(c.Slices, value)
	c.Samples += samples
	c.Value = steady(c.Slices, c.Lower, c.Skip)
}

// steady is the number a timed cell reports for its slices: the best one —
// the highest rate, the shortest time. The cells are closed-loop and
// CPU-bound on a host that shares its cores with other machines, so
// whatever disturbs a slice only ever slows it: the error is one-sided and
// the best slice is the one least in error. Measured on this host, over
// sets of ten runs, the median slice swung by 10–30% from run to run (in
// bad minutes more than half of all slices were disturbed), the upper
// quartile by 7–17%, the best slice by 1–5%. A slice is still thousands of
// batches or several passes, so it cannot be fast by luck.
//
// Where luck does exist, skip sets the best slices aside. The intent cells
// hand every message from one goroutine to another, and how fast that goes
// depends on where the scheduler happens to put the two; a few slices in a
// run catch a placement twice as fast as the usual one. Those cells report
// the quartile on the better side (skip 0.25), which moved by 3–8% between
// runs where their best slice moved by up to 18%.
func steady(v []float64, lowerIsBetter bool, skip float64) float64 {
	if lowerIsBetter {
		return quantile(v, skip)
	}
	return quantile(v, 1-skip)
}

// rateSlice measures work completed per second, closed loop: step performs
// n units of work and returns n; it is called back to back for d, the clock
// read every stride units. It returns units per second and the units done.
func rateSlice(d time.Duration, stride int, step func() int) (float64, int) {
	start := time.Now()
	deadline := start.Add(d)
	units, sinceClock := 0, 0
	for {
		n := step()
		units += n
		if sinceClock += n; sinceClock < stride {
			continue
		}
		sinceClock = 0
		if now := time.Now(); !now.Before(deadline) {
			return float64(units) / now.Sub(start).Seconds(), units
		}
	}
}

// rateCell runs tracedSlices contiguous slices of d/tracedSlices each,
// scaled (1e-6 turns frames/s into Mpps). The caller warms up first. The
// traced pass uses it; the untraced pass spreads a cell's slices over the
// whole run instead (see sampler in run.go).
func rateCell(name, unit string, d time.Duration, scale float64, stride int, step func() int) cell {
	runtime.GC()
	c := cell{Name: name, Unit: unit}
	for s := 0; s < tracedSlices; s++ {
		rate, units := rateSlice(d/tracedSlices, stride, step)
		c.add(rate*scale, units)
	}
	return c
}

// passes times whole passes of a function. In round r of n it runs as many
// passes as keep it on schedule — its time budget and its minimum number of
// passes both pro-rated to the rounds done — so that the passes of a cell
// whose pass is long are spread over the run, not bunched at one moment.
// The passes of one round make one slice, worth their mean duration: a
// pass shorter than a collector cycle would otherwise be cheap or dear by
// whether the cycle fell into it.
type passes struct {
	cell
	budget    time.Duration
	minPasses int
	// value converts the duration of one pass into the cell's unit.
	value func(time.Duration) float64
	fn    func() error
	used  time.Duration
}

func (p *passes) sample(r, n int) error {
	start, done := time.Now(), 0
	for p.Samples*n < p.minPasses*(r+1) || (p.used+time.Since(start))*time.Duration(n) < p.budget*time.Duration(r+1) {
		if err := p.fn(); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		done++
		p.Samples++
	}
	if done > 0 {
		d := time.Since(start)
		p.used += d
		p.add(p.value(d/time.Duration(done)), 0)
	}
	return nil
}

// durationIn converts a duration into multiples of unit (time.Millisecond → ms).
func durationIn(unit time.Duration) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return float64(d) / float64(unit) }
}

// passCell runs a passes cell on its own, all rounds back to back: the
// form the traced pass uses.
func passCell(name, unit string, d time.Duration, minPasses int, perUnit time.Duration, fn func() error) (cell, error) {
	runtime.GC()
	p := &passes{cell: cell{Name: name, Unit: unit, Lower: true}, budget: d, minPasses: minPasses, value: durationIn(perUnit), fn: fn}
	err := p.sample(0, 1)
	return p.cell, err
}

// perOpNs times whole passes of fn, each performing n operations, for d
// (at least three passes) after one warm-up pass, and returns the steady
// nanoseconds per operation and the operations timed. It is the primitive
// of the per-layer probes, which time a layer from outside around public
// calls.
func perOpNs(d time.Duration, n int, fn func()) (float64, int) {
	fn() // warm-up pass
	runtime.GC()
	var per []float64
	deadline := time.Now().Add(d)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return steady(per, true, 0), len(per) * n
}

// mallocsPer counts heap allocations per unit over one call of fn that
// performs n units.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported: a p99 needs at least 1 000 samples.
const minTailSamples = 10

// percentile reports the q-quantile only when at least minTailSamples
// samples lie beyond it; otherwise it refuses.
func percentile(v []float64, q float64) (float64, error) {
	if beyond := float64(len(v)) * (1 - q); beyond < minTailSamples {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %.1f of %d",
			q*100, minTailSamples, beyond, len(v))
	}
	return quantile(v, q), nil
}

// iqrShare is the distance between the first and third quartile of v as a
// share of its median — the spread the bounds are derived from. Quartiles
// follow Python's statistics.quantiles(v, n=4) (exclusive method).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(len(s)-1) {
			pos = float64(len(s) - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(at(0.75)-at(0.25)) / math.Abs(m)
}
