package main

import (
	"fmt"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/usecases"
)

// batchFrames is the batch size of every packet cell: 64 frames per
// Worker.ProcessBatch call.
const batchFrames = 64

// forwardCell names one (switch model, representation) cell.
type forwardCell struct {
	Metric string
	Model  string
	Rep    usecases.Representation
}

// endToEndCells are the five cells promoted to end-to-end metrics; the
// rest of the model × representation matrix is per-layer (layer_switches).
var endToEndCells = []forwardCell{
	{"ovs_goto_mpps", "ovs", usecases.RepGoto},
	{"eswitch_universal_mpps", "eswitch", usecases.RepUniversal},
	{"eswitch_goto_mpps", "eswitch", usecases.RepGoto},
	{"eswitch_fused_mpps", "eswitch", usecases.RepFused},
	{"lagopus_goto_mpps", "lagopus", usecases.RepGoto},
}

// headlineCell is the cell whose batch service time is reported and whose
// traced/untraced ratio is the packet workloads' trace overhead.
var headlineCell = endToEndCells[2]

// lane is one switch model programmed with one representation, driven by
// exactly one Worker on the calling goroutine, replaying the trace in
// batches. Verdicts land index-aligned with the trace so they can be
// checked against the reference after the timed run.
type lane struct {
	cell     forwardCell
	sw       switches.Switch
	w        switches.Worker
	frames   [][]byte
	verdicts []dataplane.Verdict
	pos      int
	// done counts frames forwarded since the trace was last rewound; frames
	// below it have a verdict.
	done int
	err  error

	// budget is the lane's total measuring time in the untraced pass and
	// result its throughput cell, one slice per round.
	budget time.Duration
	result cell
}

// switchOptions puts a model in the mode the scenario's schema needs: the
// default schema keeps the fixed fast path, any other schema goes through
// the table-driven decoder.
func (in *forwardInputs) switchOptions() []switches.Option {
	if in.schema == packet.SchemaDefault {
		return nil
	}
	return []switches.Option{switches.WithSchema(in.dec)}
}

// newLane builds a switch, installs the representation and takes a worker.
func (in *forwardInputs) newLane(c forwardCell) (*lane, error) {
	sw, err := switches.New(c.Model, in.switchOptions()...)
	if err != nil {
		return nil, err
	}
	if err := sw.Install(in.pipes[c.Rep]); err != nil {
		return nil, fmt.Errorf("%s × %s: %w", c.Model, c.Rep, err)
	}
	return &lane{
		cell: c, sw: sw, w: sw.NewWorker(),
		frames:   in.frames,
		verdicts: make([]dataplane.Verdict, len(in.frames)),
		result:   cell{Name: c.Metric, Unit: "Mpps"},
	}, nil
}

// step forwards the next batch of the trace, cycling, and returns the
// number of frames forwarded.
func (l *lane) step() int {
	end := l.pos + batchFrames
	if end > len(l.frames) {
		end = len(l.frames)
	}
	if err := l.w.ProcessBatch(l.frames[l.pos:end], l.verdicts[l.pos:end]); err != nil && l.err == nil {
		l.err = err
	}
	n := end - l.pos
	l.done += n
	if l.pos = end; l.pos == len(l.frames) {
		l.pos = 0
	}
	return n
}

// rewind restarts the trace at its first frame.
func (l *lane) rewind() { l.pos, l.done = 0, 0 }

// cover forwards, one by one, the frames at idx the replay has not reached:
// only a slow model on a long trace ends a cell before its first pass does.
func (l *lane) cover(idx []int) error {
	for _, i := range idx {
		if i < l.done {
			continue
		}
		if err := l.w.ProcessBatch(l.frames[i:i+1], l.verdicts[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// warm runs one pass over the trace so caches fill and lazy set-up
// finishes before timing. The pass is cut short after limit: only a
// cache-less model on a large table is slow enough to hit it, and it has
// nothing to fill.
func (l *lane) warm(limit time.Duration) {
	deadline := time.Now().Add(limit)
	l.rewind()
	for l.done < len(l.frames) {
		l.step()
		if l.done%clockStride == 0 && time.Now().After(deadline) {
			break
		}
	}
}

// rate runs the closed-loop throughput cell in one piece and reports Mpps.
func (l *lane) rate(d time.Duration) (cell, error) {
	l.warm(d / 4)
	c := rateCell(l.cell.Metric, "Mpps", d, 1e-6, clockStride, l.step)
	return c, l.err
}

// sample takes the lane's slice of round r of n: a warm-up pass, then
// frames back to back for the slice.
func (l *lane) sample(r, n int) error {
	slice := l.budget / time.Duration(n)
	l.warm(slice / 2)
	rate, frames := rateSlice(slice, clockStride, l.step)
	l.result.add(rate*1e-6, frames)
	return l.err
}

// batchTimes times single ProcessBatch calls for d, and on until it has
// minSamples, in a pass of its own (timers never run inside a throughput
// cell) and returns microseconds per batch.
func (l *lane) batchTimes(d time.Duration, minSamples int) ([]float64, error) {
	l.warm(d / 4)
	var us []float64
	deadline := time.Now().Add(d)
	for now := time.Now(); l.err == nil && (now.Before(deadline) || len(us) < minSamples); {
		n := l.step()
		end := time.Now()
		if n == batchFrames {
			us = append(us, float64(end.Sub(now).Nanoseconds())/1e3)
		}
		now = end
	}
	return us, l.err
}

// batchTimer is the batch service time cell on the headline lane: every
// round it times single batches for its slice and keeps the slice's p99.
type batchTimer struct {
	l      *lane
	budget time.Duration
	p99    cell
}

func (b *batchTimer) sample(r, n int) error {
	us, err := b.l.batchTimes(b.budget/time.Duration(n), p99MinSamples)
	if err != nil {
		return err
	}
	p99, err := percentile(us, 0.99)
	if err != nil {
		return fmt.Errorf("%s: %w", b.p99.Name, err)
	}
	b.p99.add(p99, len(us))
	return nil
}

// forwardPhase holds the installed end-to-end lanes; installing them is
// part of set-up.
type forwardPhase struct {
	in     *forwardInputs
	lanes  []*lane
	batchT *batchTimer
}

func newForwardPhase(in *forwardInputs) (*forwardPhase, error) {
	p := &forwardPhase{in: in}
	for _, c := range endToEndCells {
		l, err := in.newLane(c)
		if err != nil {
			return nil, err
		}
		p.lanes = append(p.lanes, l)
	}
	p.batchT = &batchTimer{l: p.lane(headlineCell), p99: cell{Name: "batch_p99_us", Unit: "us", Lower: true}}
	return p, nil
}

func (p *forwardPhase) lane(c forwardCell) *lane {
	for _, l := range p.lanes {
		if l.cell == c {
			return l
		}
	}
	return nil
}

// cells returns the phase's timed cells: the five throughput cells and the
// batch service time.
func (p *forwardPhase) cells(b budget) []sampler {
	var out []sampler
	for _, l := range p.lanes {
		l.budget = b.forwardCell
		out = append(out, l)
	}
	p.batchT.budget = b.forwardCell
	return append(out, p.batchT)
}

// finish records the cells and checks every verdict they produced against
// the reference.
func (p *forwardPhase) finish(rec *recorder) error {
	for _, l := range p.lanes {
		rec.cell(l.result)
		if err := p.check(l, &rec.tally); err != nil {
			return err
		}
	}
	rec.cell(p.batchT.p99)
	return nil
}

// check compares every verdict the lane produced for a reference frame.
func (p *forwardPhase) check(l *lane, t *tally) error {
	if err := l.cover(p.in.checkIdx); err != nil {
		return fmt.Errorf("%s: %w", l.cell.Metric, err)
	}
	checkVerdicts(l.cell.Model+" × "+string(l.cell.Rep), p.in.checkIdx, p.in.ref, l.verdicts, t)
	return nil
}
