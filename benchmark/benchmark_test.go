package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shrunk returns the workload with every program scaled down, so a run
// with millisecond slices finishes in well under a second. Names, phases
// and the metrics emitted are those of the real workload.
func shrunk(sc scenario) scenario {
	small := func(s size) size {
		if s == table1Size {
			return size{10, 4}
		}
		return size{16, 6}
	}
	sc.Forward, sc.Update, sc.Normalize, sc.Verify = small(sc.Forward), small(sc.Update), small(sc.Normalize), small(sc.Verify)
	if sc.Flows > 2048 {
		sc.Flows, sc.RefSample = 2048, 512
	} else {
		sc.Flows = 512
	}
	sc.Sweep = sweepSizes{Small: size{10, 4}, Medium: size{12, 5}, Large: size{16, 6}, L3Prefixes: 64}
	return sc
}

const testSeconds = 0.05

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (benchmarkFile, map[string]json.RawMessage) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	return f, keys
}

// TestBenchmarkFileMatchesTheCode: BENCHMARK.json declares exactly the
// workloads and metrics the code emits, inside the contract's limits.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f, keys := readBenchmarkFile(t)
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", f.RunSeconds, defaultSeconds)
	}
	for _, arg := range f.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}

	if n := len(f.Workloads); n < 2 || n > 8 || n != len(scenarios) {
		t.Fatalf("%d workloads declared, %d in the code (2 to 8 allowed)", n, len(scenarios))
	}
	for i, w := range f.Workloads {
		if w.Name != scenarios[i].Name || w.Why != scenarios[i].Why {
			t.Errorf("workload %d: declared %q / %q, code has %q / %q", i, w.Name, w.Why, scenarios[i].Name, scenarios[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, declared, code []metricSpec, limit int, bounded bool) {
		if len(declared) < 1 || len(declared) > limit {
			t.Errorf("%d %s metrics, 1 to %d allowed", len(declared), kind, limit)
		}
		if len(declared) != len(code) {
			t.Fatalf("%d %s metrics declared, %d in the code", len(declared), kind, len(code))
		}
		for i, m := range declared {
			want := code[i]
			want.Exact = false
			if m != want {
				t.Errorf("%s metric %d: declared %+v, code has %+v", kind, i, m, want)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %q unit %q: malformed name or unit", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("name %q is used twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	for _, w := range f.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q malformed or reused", w.Name)
		}
		seen[w.Name] = true
	}
	check("end-to-end", f.EndToEnd, endToEndSpecs, 16, true)
	check("per-layer", f.PerLayer, perLayerSpecs, 128, false)
	if s, ok := specByName(f.EndToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", s)
	}
}

// runOnce runs a shrunk workload and fails the test on any error or any
// output disagreeing with the reference.
func runOnce(t *testing.T, sc scenario, seed int64, traced bool) *runRecord {
	t.Helper()
	r, _, err := runWorkload(shrunk(sc), seed, testSeconds, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d: %v", sc.Name, r.Correct, r.Failed, r.Attempted, r.Failures)
	}
	return r
}

// checkEmitted: every declared metric exactly once, with its unit, and
// nothing else.
func checkEmitted(t *testing.T, r *runRecord, specs []metricSpec) {
	t.Helper()
	got := map[string]int{}
	for _, m := range r.Metrics {
		got[m.Name]++
		s, ok := specByName(specs, m.Name)
		switch {
		case !ok:
			t.Errorf("%s emits undeclared metric %q", r.Workload, m.Name)
		case s.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", r.Workload, m.Name, m.Unit, s.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", r.Workload, m.Name, m.Value)
		}
	}
	for _, s := range specs {
		if got[s.Name] != 1 {
			t.Errorf("%s emits %s %d times, want once", r.Workload, s.Name, got[s.Name])
		}
	}
}

func exactValues(r *runRecord) map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.Metrics {
		if s, ok := specByName(perLayerSpecs, m.Name); ok && s.Exact {
			out[m.Name] = m.Value
		}
	}
	return out
}

// TestEveryWorkloadEmitsEveryMetric runs all five workloads untraced and
// traced: the untraced pass yields exactly the end-to-end metrics (none of
// them 0), the traced pass exactly the per-layer ones.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			e2e := runOnce(t, sc, 1, false)
			checkEmitted(t, e2e, endToEndSpecs)
			for _, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; must never be 0", m.Name, m.Value)
				}
			}
			checkEmitted(t, runOnce(t, sc, 1, true), perLayerSpecs)
		})
	}
}

// TestExactCountsRepeat: the exact-count metrics repeat exactly across two
// traced runs with one seed. vxlan is the workload with malformed frames,
// so the one where packet.decode_drops is not 0.
func TestExactCountsRepeat(t *testing.T) {
	sc, err := scenarioByName("vxlan")
	if err != nil {
		t.Fatal(err)
	}
	first, second := exactValues(runOnce(t, sc, 3, true)), exactValues(runOnce(t, sc, 3, true))
	if first["packet.decode_drops"] == 0 {
		t.Error("no malformed frame in the vxlan trace")
	}
	for _, s := range perLayerSpecs {
		if !s.Exact {
			continue
		}
		a, ok := first[s.Name]
		if b := second[s.Name]; !ok || a != b {
			t.Errorf("exact-count metric %s: %v then %v with one seed", s.Name, a, b)
		}
	}
}

// TestSeedChangesInputs: the same seed gives the same inputs, another seed
// other inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, sc := range scenarios {
		build := func(seed int64) []byte {
			in, err := buildForward(shrunk(sc), seed)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join(in.frames, nil)
		}
		if !bytes.Equal(build(1), build(1)) {
			t.Errorf("%s: one seed, two different traces", sc.Name)
		}
		if bytes.Equal(build(1), build(2)) {
			t.Errorf("%s: seeds 1 and 2 give the same trace", sc.Name)
		}
	}
	a, err := buildToolchain(shrunk(scenarios[4]), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildToolchain(shrunk(scenarios[4]), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sameRows(a.normalizeTable, b.normalizeTable) {
		t.Error("seeds 1 and 2 give the same table to normalize")
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := percentile(v, 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if got, err := percentile(append(v, 999), 0.99); err != nil || math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v", got, err)
	}
}

// TestQuartileSpreadMatchesPython pins iqrShare to
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// statistics.quantiles(v, n=4) = [10.375, 11.75, 13.25]; median 11.75.
	want := (13.25 - 10.375) / 11.75
	if got := iqrShare(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer("t")
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("batch", -1, 0, at(0), at(10))
	tr.add("packet.decode", 0, 0, at(1), at(4))
	tr.add("dataplane.process", 0, 0, at(4), at(9))
	self := tr.selfTimes()
	for layer, want := range map[string]time.Duration{
		"benchmark": 2 * time.Millisecond, "packet": 3 * time.Millisecond, "dataplane": 5 * time.Millisecond,
	} {
		if self[layer] != want {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	file := func(failed int, mpps ...float64) *resultsFile {
		f := &resultsFile{}
		for i, v := range mpps {
			f.Runs = append(f.Runs, runRecord{
				Workload: "table1", Seed: int64(i), Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: []metricValue{{Name: "eswitch_goto_mpps", Value: v, Unit: "Mpps"}},
			})
		}
		return f
	}
	for _, c := range []struct {
		name string
		a, b *resultsFile
		pass bool
		says string
	}{
		{"same", file(0, 10, 10.1, 9.9, 10), file(0, 10, 10.1, 9.9, 10.05), true, "within bound"},
		{"slower", file(0, 10, 10.1, 9.9, 10), file(0, 7, 7.1, 6.9, 7), false, "OUT OF BOUND"},
		{"noisy", file(0, 10, 14, 7, 11), file(0, 10.2, 13.5, 7.1, 10.9), true, "unresolved"},
		{"wrong outputs", file(0, 10, 10), file(1, 10, 10), false, "FAILED OUTPUTS"},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, c.a, c.b); got != c.pass || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: pass=%v, want %v and %q in:\n%s", c.name, got, c.pass, c.says, out.String())
		}
	}
}

func specByName(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
