package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manorm/internal/controlplane"
	"manorm/internal/dataplane"
	"manorm/internal/faultconn"
	"manorm/internal/openflow"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// SoakSpec configures the sustained soak (E10): forwarding, control-plane
// churn and control-channel faults run concurrently for Duration while
// per-window throughput and latency gates watch for drift.
type SoakSpec struct {
	// Duration is the total soak time (default 60s).
	Duration time.Duration
	// Workers is the number of forwarding goroutines (default 2).
	Workers int
	// Rep is the installed pipeline representation (default goto — the
	// normalized form, so churn exercises multi-stage reinstalls).
	Rep usecases.Representation
	// Malformed is the corrupted fraction of the wire trace (default 2%),
	// keeping the decoder's typed drop paths hot for the whole run.
	Malformed float64
	// Fault shapes the control channel; every control connection is
	// additionally cut periodically so the client's reconnect path runs
	// throughout the soak, not once.
	Fault FaultSpec
	// Windows is the number of measurement windows (default 12). Window 0
	// is warm-up and exempt from the gates.
	Windows int
	// DriftTol gates throughput: every post-warm-up window must forward at
	// least (1-DriftTol) × the median window rate (default 0.5).
	DriftTol float64
	// P99Factor gates tail latency: every post-warm-up window's p99
	// processing time must stay within P99Factor × the median window p99
	// (default 16 — processing histograms under concurrent churn are
	// noisy; the gate catches collapse, not jitter).
	P99Factor float64
}

// DefaultSoakSpec is the CI soak: one minute of forwarding on the goto
// pipeline under 1% control-frame loss, 25ms jitter, periodic connection
// cuts and 2% malformed traffic.
func DefaultSoakSpec() SoakSpec {
	return SoakSpec{
		Duration:  60 * time.Second,
		Workers:   2,
		Rep:       usecases.RepGoto,
		Malformed: 0.02,
		Fault: FaultSpec{
			Loss: 0.01, Jitter: 25 * time.Millisecond,
			Seed: 1, RPCTimeout: 250 * time.Millisecond,
		},
		Windows:   12,
		DriftTol:  0.5,
		P99Factor: 16,
	}
}

// SoakWindow is one measurement window's view of the run.
type SoakWindow struct {
	// Mpps is the aggregate forwarding rate during the window.
	Mpps float64
	// P99Ns is the 99th-percentile per-packet processing time of the
	// observations made during this window (histogram bucket delta).
	P99Ns float64
	// Packets is the number of frames forwarded during the window.
	Packets uint64
}

// SoakResult is the outcome of one soak run.
type SoakResult struct {
	Spec    SoakSpec
	Windows []SoakWindow
	// Packets is the total frames forwarded; Updates the control-plane
	// updates committed under faults.
	Packets uint64
	Updates int64
	// DropsTruncated/DropsBadHeader are the ingest layer's typed decode
	// drops, read from the telemetry registry.
	DropsTruncated uint64
	DropsBadHeader uint64
	// Violations lists every gate the run failed; empty means the soak
	// passed.
	Violations []string
}

// OK reports whether every gate held.
func (r *SoakResult) OK() bool { return len(r.Violations) == 0 }

// runSoak is the registry entry: the CI soak for cfg.Duration (the spec's
// 60s when zero), gated on its violations.
func runSoak(w io.Writer, cfg Config) error {
	spec := DefaultSoakSpec()
	if cfg.Duration > 0 {
		spec.Duration = cfg.Duration
	}
	r, err := Soak(cfg, spec)
	if err != nil {
		return err
	}
	RenderSoak(w, r)
	if !r.OK() {
		return fmt.Errorf("soak gates failed: %d violation(s)", len(r.Violations))
	}
	return nil
}

// Soak runs the sustained-load experiment: W forwarding workers cycle a
// replayable wire trace (including malformed frames) through an
// instrumented ESwitch while a controller churns service ports over a
// fault-injected TCP control channel, and a sampler snapshots throughput
// and the processing-latency histogram per window. Worker and harness
// errors abort the run; gate failures are reported in the result.
func Soak(cfg Config, spec SoakSpec) (*SoakResult, error) {
	def := DefaultSoakSpec()
	if spec.Duration <= 0 {
		spec.Duration = def.Duration
	}
	if spec.Workers <= 0 {
		spec.Workers = def.Workers
	}
	if spec.Rep == "" {
		spec.Rep = def.Rep
	}
	if spec.Windows < 3 {
		spec.Windows = def.Windows
	}
	if spec.DriftTol <= 0 {
		spec.DriftTol = def.DriftTol
	}
	if spec.P99Factor <= 0 {
		spec.P99Factor = def.P99Factor
	}
	if spec.Fault.RPCTimeout <= 0 {
		spec.Fault.RPCTimeout = def.Fault.RPCTimeout
	}

	reg := telemetry.NewRegistry()
	g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
	p, err := g.Build(spec.Rep)
	if err != nil {
		return nil, err
	}
	sw := switches.NewESwitch(switches.WithTelemetry(reg))
	agent, err := openflow.NewAgent(sw, p)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = agent.Serve(context.Background(), c)
		}
	}()

	// Every control connection is faulty, and every other one is cut after
	// a few dozen frames — the soak keeps the reconnect/resync machinery
	// running for its whole duration instead of exercising it once.
	dials := 0
	dialer := func() (net.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		fc := faultconn.Config{
			Seed:         spec.Fault.Seed + int64(dials)*1009,
			DropRate:     spec.Fault.Loss,
			Latency:      spec.Fault.Latency,
			Jitter:       spec.Fault.Jitter,
			MaxReadChunk: 9,
		}
		if dials%2 == 1 {
			fc.CutAfterWrites = 64
			fc.CutMidFrame = true
		}
		dials++
		return faultconn.Wrap(raw, fc), nil
	}
	client, err := openflow.NewClient(nil,
		openflow.WithDialer(dialer),
		openflow.WithRPCTimeout(spec.Fault.RPCTimeout),
		openflow.WithRetryPolicy(openflow.RetryPolicy{
			Base: 2 * time.Millisecond, Max: 100 * time.Millisecond,
			Multiplier: 2, Jitter: 0.25, MaxRetries: 8, Seed: spec.Fault.Seed,
		}),
	)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	ctl := &controlplane.Controller{Client: client, Rep: spec.Rep, Config: g}

	fs, err := trafficgen.WireStream(trafficgen.WireSpec{
		Malformed: spec.Malformed, Seed: cfg.Seed,
		Services: cfg.Services, Backends: cfg.Backends,
	})
	if err != nil {
		return nil, err
	}
	shards := trafficgen.Shards(fs.Frames(), spec.Workers)

	var stop atomic.Bool
	var forwarded atomic.Uint64
	workerErrs := make([]error, spec.Workers)
	var wg sync.WaitGroup
	for wi := 0; wi < spec.Workers; wi++ {
		var batches [][][]byte
		shard := shards[wi%len(shards)]
		for off := 0; off < len(shard); off += parallelBatch {
			end := off + parallelBatch
			if end > len(shard) {
				end = len(shard)
			}
			batches = append(batches, shard[off:end])
		}
		worker := sw.NewWorker()
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			out := make([]dataplane.Verdict, parallelBatch)
			for i := 0; !stop.Load(); i++ {
				b := batches[i%len(batches)]
				if err := worker.ProcessBatch(b, out); err != nil {
					workerErrs[wi] = err
					return
				}
				forwarded.Add(uint64(len(b)))
			}
		}(wi)
	}

	var updates atomic.Int64
	var churnErr error
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		ctx := context.Background()
		for i := 0; !stop.Load(); i++ {
			svc := i % len(g.Services)
			if _, err := ctl.ChangeServicePort(ctx, svc, uint16(20000+i%40000)); err != nil {
				churnErr = err
				return
			}
			updates.Add(1)
		}
	}()

	// Sampler: per window, diff the forwarded count and the processing
	// histogram's bucket counts (the histogram survives churn reinstalls —
	// the registry hands back the same instrument by name).
	winDur := spec.Duration / time.Duration(spec.Windows)
	windows := make([]SoakWindow, 0, spec.Windows)
	var prevPkts uint64
	prevHist := soakHist(reg)
	for wi := 0; wi < spec.Windows; wi++ {
		time.Sleep(winDur)
		cur := forwarded.Load()
		curHist := soakHist(reg)
		windows = append(windows, SoakWindow{
			Mpps:    float64(cur-prevPkts) / winDur.Seconds() / 1e6,
			P99Ns:   histDelta(prevHist, curHist).Quantile(0.99),
			Packets: cur - prevPkts,
		})
		prevPkts, prevHist = cur, curHist
	}

	stop.Store(true)
	wg.Wait()
	<-churnDone
	for _, err := range workerErrs {
		if err != nil {
			return nil, fmt.Errorf("soak forwarding worker: %w", err)
		}
	}

	snap := reg.Snapshot()
	res := &SoakResult{
		Spec:           spec,
		Windows:        windows,
		Packets:        forwarded.Load(),
		Updates:        updates.Load(),
		DropsTruncated: snap.Counters["ingest.drops.truncated"],
		DropsBadHeader: snap.Counters["ingest.drops.bad_header"],
	}
	res.Violations = soakGates(res, churnErr)
	return res, nil
}

// soakGates evaluates the run against the spec's gates, returning one
// message per violated gate. Window 0 is warm-up and exempt.
func soakGates(r *SoakResult, churnErr error) []string {
	var v []string
	spec := r.Spec
	steady := r.Windows[1:]
	var rates, p99s []float64
	for _, w := range steady {
		rates = append(rates, w.Mpps)
		if w.P99Ns > 0 {
			p99s = append(p99s, w.P99Ns)
		}
	}
	medRate := soakMedian(rates)
	floor := (1 - spec.DriftTol) * medRate
	for i, w := range steady {
		if w.Mpps < floor {
			v = append(v, fmt.Sprintf("throughput drift: window %d at %.3f Mpps, below %.3f (%.0f%% of median %.3f)",
				i+1, w.Mpps, floor, (1-spec.DriftTol)*100, medRate))
		}
	}
	if medP99 := soakMedian(p99s); medP99 > 0 {
		ceil := spec.P99Factor * medP99
		for i, w := range steady {
			if w.P99Ns > ceil {
				v = append(v, fmt.Sprintf("p99 blowup: window %d at %.0fns, above %.0fns (%.0f× median %.0fns)",
					i+1, w.P99Ns, ceil, spec.P99Factor, medP99))
			}
		}
	}
	if churnErr != nil {
		v = append(v, fmt.Sprintf("control-plane churn failed: %v", churnErr))
	}
	if r.Updates == 0 {
		v = append(v, "control-plane churn committed zero updates")
	}
	if spec.Malformed > 0 && r.DropsTruncated+r.DropsBadHeader == 0 {
		v = append(v, "malformed traffic injected but ingest drop counters stayed zero")
	}
	return v
}

// soakHist finds the pipeline processing-latency histogram in the
// registry (there is exactly one instrumented pipeline in the soak).
func soakHist(reg *telemetry.Registry) telemetry.HistogramSnapshot {
	snap := reg.Snapshot()
	for name, h := range snap.Histograms {
		if strings.HasSuffix(name, ".process_ns") {
			return h
		}
	}
	return telemetry.HistogramSnapshot{}
}

// histDelta subtracts two snapshots of one histogram bucket-wise, giving
// the distribution of only the observations made between them. The
// current max stands in for the window max (the instrument does not track
// per-window maxima); it only matters for quantiles landing in the
// overflow bucket.
func histDelta(prev, cur telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	prevByLE := make(map[float64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByLE[b.LE] = b.Count
	}
	d := telemetry.HistogramSnapshot{Max: cur.Max}
	for _, b := range cur.Buckets {
		if n := b.Count - prevByLE[b.LE]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.Bucket{LE: b.LE, Count: n})
			d.Count += n
		}
	}
	return d
}

// soakMedian returns the median of xs (0 for an empty slice).
func soakMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// RenderSoak prints the soak run: the per-window table and the gate
// outcome.
func RenderSoak(w io.Writer, r *SoakResult) {
	fmt.Fprintf(w, "E10: sustained soak — %s forwarding (%d workers, rep %s) + churn under faults (%s, %.0f%% malformed)\n",
		r.Spec.Duration, r.Spec.Workers, r.Spec.Rep, r.Spec.Fault, r.Spec.Malformed*100)
	fmt.Fprintf(w, "%-8s %-12s %-12s %-10s\n", "window", "rate[Mpps]", "p99[µs]", "packets")
	for i, win := range r.Windows {
		note := ""
		if i == 0 {
			note = "  (warm-up)"
		}
		fmt.Fprintf(w, "%-8d %-12.3f %-12.2f %-10d%s\n", i, win.Mpps, win.P99Ns/1000, win.Packets, note)
	}
	fmt.Fprintf(w, "totals: %d packets, %d control updates, drops: %d truncated / %d bad-header\n",
		r.Packets, r.Updates, r.DropsTruncated, r.DropsBadHeader)
	if r.OK() {
		fmt.Fprintf(w, "gates: PASS (drift ≤ %.0f%%, p99 ≤ %.0f× median, churn live, typed drops observed)\n",
			r.Spec.DriftTol*100, r.Spec.P99Factor)
		return
	}
	fmt.Fprintln(w, "gates: FAIL")
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  - %s\n", v)
	}
}
