package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark
// itself around a call into a layer. Spans of one unit of work (a batch, an
// intent, a program) share Unit; Parent links a span to the span that
// caused it (-1 at the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Unit    int    `json:"unit"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// layer is the package the span's call went into: the name up to the
// first dot ("packet.decode" → "packet"). A span named without a dot is a
// unit of work (a batch, an intent, a program) and belongs to the
// benchmark's own loop.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "benchmark"
}

// maxSpans bounds the spans kept per workload, and sectionSpans the spans
// one traced loop (batches, intents) may keep of them. Past a bound a span
// still costs its two clock reads — the traced rate stays honest — but is
// only counted, so a long traced run cannot exhaust memory.
const (
	maxSpans     = 1 << 16
	sectionSpans = 1 << 13
)

// tracer keeps the spans and boundary counts of one traced run in memory;
// they are written out when the benchmark ends.
type tracer struct {
	Workload string         `json:"workload"`
	Spans    []span         `json:"spans"`
	Counts   map[string]int `json:"counts"`
	Dropped  int            `json:"spans_dropped"`
	origin   time.Time
	limit    int
}

func newTracer(workload string) *tracer {
	return &tracer{Workload: workload, Spans: make([]span, 0, 4096), Counts: map[string]int{}, origin: time.Now(), limit: maxSpans}
}

// section starts a traced loop: it may keep sectionSpans more spans.
func (t *tracer) section() {
	if t.limit = len(t.Spans) + sectionSpans; t.limit > maxSpans {
		t.limit = maxSpans
	}
}

// endSection lifts the loop's bound again.
func (t *tracer) endSection() { t.limit = maxSpans }

// begin opens a span and returns its id, or -1 once the bound is reached.
func (t *tracer) begin(name string, parent, unit int) int {
	now := time.Since(t.origin).Nanoseconds()
	if len(t.Spans) >= t.limit {
		t.Dropped++
		return -1
	}
	id := len(t.Spans)
	t.Spans = append(t.Spans, span{ID: id, Parent: parent, Unit: unit, Name: name, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin).Nanoseconds()
	if id >= 0 {
		t.Spans[id].EndNs = now
	}
}

// add records a span whose interval was clocked by the caller.
func (t *tracer) add(name string, parent, unit int, start, end time.Time) {
	if id := t.begin(name, parent, unit); id >= 0 {
		t.Spans[id].StartNs, t.Spans[id].EndNs = start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()
	}
}

// in records fn as one span.
func (t *tracer) in(name string, parent, unit int, fn func()) {
	id := t.begin(name, parent, unit)
	fn()
	t.end(id)
}

// count adds n to the counter kept at a layer boundary.
func (t *tracer) count(boundary string, n int) { t.Counts[boundary] += n }

// durations returns the durations in the given unit (e.g. time.Microsecond)
// of every kept span with the given name.
func (t *tracer) durations(name string, per time.Duration) []float64 {
	var out []float64
	for _, s := range t.Spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/float64(per))
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.Spans {
		self[s.layer()] += time.Duration(s.EndNs - s.StartNs - covered[s.ID])
	}
	return self
}

// traceFile is what -trace-out writes: one trace per workload run.
type traceFile struct {
	Traces []*tracer `json:"traces"`
}

func writeTrace(path string, traces []*tracer) error {
	b, err := json.Marshal(traceFile{Traces: traces})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarizeTrace prints, per workload, the self time of every layer and
// the boundary counts of a trace file.
func summarizeTrace(w io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, t := range f.Traces {
		self := t.selfTimes()
		var total time.Duration
		layers := make([]string, 0, len(self))
		for l, d := range self {
			layers = append(layers, l)
			total += d
		}
		sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
		fmt.Fprintf(w, "workload %s: %d spans (%d not kept), %.1f ms traced\n", t.Workload, len(t.Spans), t.Dropped, float64(total)/1e6)
		for _, l := range layers {
			fmt.Fprintf(w, "  %-14s self %10.3f ms  %5.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
		}
		names := make([]string, 0, len(t.Counts))
		for n := range t.Counts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  count %-32s %d\n", n, t.Counts[n])
		}
	}
	return nil
}
