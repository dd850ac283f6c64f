package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one reported number. Slices and Samples say how much
// measurement backs it: the number of time slices it was taken from (0 for
// a count or a single reading) and the work units or latency samples behind
// it.
type metricValue struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Slices  int     `json:"slices,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// SliceValues are the slices Value was taken from.
	SliceValues []float64 `json:"slice_values,omitempty"`
}

// recorder collects what one run of one workload reports.
type recorder struct {
	values []metricValue
	tally  tally
	trace  *tracer // nil on an untraced run
}

// cell records a timed cell as a metric.
func (r *recorder) cell(c cell) {
	r.values = append(r.values, metricValue{
		Name: c.Name, Value: c.Value, Unit: c.Unit, Slices: len(c.Slices), Samples: c.Samples, SliceValues: c.Slices,
	})
}

// put records a count, a ratio or a single reading.
func (r *recorder) put(name, unit string, v float64) {
	r.values = append(r.values, metricValue{Name: name, Value: v, Unit: unit})
}

// putTimed records a reading together with the samples behind it.
func (r *recorder) putTimed(name, unit string, v float64, samples int) {
	r.values = append(r.values, metricValue{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (r *recorder) value(name string) (float64, bool) {
	for _, m := range r.values {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// runRecord is one run of one workload, traced or not.
type runRecord struct {
	Workload string  `json:"workload"`
	Phase    string  `json:"phase"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Loop states the load shape of each phase.
	Loop      []string      `json:"loop"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	WallS     float64       `json:"wall_s"`
	Metrics   []metricValue `json:"metrics"`
}

// loopShape is the load shape every run has, stated in its record.
var loopShape = []string{
	"forward: closed loop, CPU-bound, one switches.Worker on one goroutine, 64-frame batches of 64-byte frames",
	"update: closed loop, one caller: the controller waits for the barrier ack before its next intent",
	"toolchain: closed loop, one goroutine, whole passes",
}

// hostRecord describes where and on what a results file was measured.
type hostRecord struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
	Control    string `json:"control_channel"`
}

// resultsFile is what -out writes and -compare reads: a set of runs.
type resultsFile struct {
	Host hostRecord  `json:"host"`
	Runs []runRecord `json:"runs"`
}

// pinProcs pins GOMAXPROCS to min(nproc, 2), the load shape the workloads
// were sized for.
func pinProcs() {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
}

func describeHost() hostRecord {
	h := hostRecord{
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  "unknown",
		Control:    loopbackNote,
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply not known. The ceiling keeps git from searching above the
	// working directory for one.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			h.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func writeResults(path string, f *resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRun prints every metric of a run by name with its unit, then the
// one-line JSON object the driver reads as the last line of standard
// output.
func printRun(w io.Writer, r *runRecord) error {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  moves the %s phase  wall %.1f s\n", r.Workload, r.Seed, kind, r.Phase, r.WallS)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-40s %16.6g %-12s", m.Name, m.Value, m.Unit)
		if m.Slices > 0 {
			fmt.Fprintf(w, " %d slices", m.Slices)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  outputs checked %d, disagreeing with the reference %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jsonMetric{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
