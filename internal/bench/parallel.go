package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// parallelBatch is the frame-batch size of the parallel hot loop: large
// enough to amortize the per-batch revalidation check and loop overhead,
// small enough to keep the verdict buffer in cache.
const parallelBatch = 64

// ParallelResult is one point of the multi-core scaling curve: a switch
// and representation driven by W workers over disjoint traffic shards.
type ParallelResult struct {
	Switch string
	Rep    usecases.Representation
	// Workers is the number of forwarding goroutines.
	Workers int
	// Schema names the header schema the workload ran under
	// (packet.SchemaDefault for the canonical parser).
	Schema string
	// RateMpps is the aggregate forwarding rate over all workers
	// (wall-clock: total packets / elapsed time).
	RateMpps float64
	// Speedup is RateMpps relative to the 1-worker rate of the same
	// switch, schema and representation (1.0 for the 1-worker row itself;
	// 0 when no 1-worker baseline was measured).
	Speedup float64
	// Packets is the total packet count forwarded during the timed run.
	Packets int
}

// MeasureParallel measures the aggregate forwarding rate of one switch and
// representation with `workers` forwarding goroutines, on the use case of
// the named header schema (SchemaWorkload). Under a non-default schema the
// switch runs in schema mode: frames decode through the compiled parse
// graph. Each goroutine owns a dedicated switch Worker (its own scratch
// packet, metadata registers and — for OVS — flow-cache shard) and a
// disjoint round-robin shard of the traffic, the model's equivalent of
// per-core NIC queues under RSS. The hot loop runs ProcessBatch over
// fixed-size frame batches; the rate is wall-clock aggregate across all
// workers.
//
// The hardware model (NoviFlow) forwards at line rate regardless of how
// many harness cores feed it, so its curve is flat at HWLineRateMpps; the
// batches still execute for functional verification.
func MeasureParallel(swName, schema string, rep usecases.Representation, cfg Config, workers int) (*ParallelResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("bench: workers must be >= 1, got %d", workers)
	}
	var opts []switches.Option
	if schema != packet.SchemaDefault {
		dec, err := packet.BuiltinDecoder(schema)
		if err != nil {
			return nil, err
		}
		opts = append(opts, switches.WithSchema(dec))
	}
	sw, err := switches.New(swName, opts...)
	if err != nil {
		return nil, err
	}
	p, frames, err := SchemaWorkload(schema, rep, cfg)
	if err != nil {
		return nil, err
	}
	if err := sw.Install(p); err != nil {
		return nil, err
	}
	total, elapsed, err := runParallelFrames(sw, frames, cfg.Packets, workers)
	if err != nil {
		return nil, err
	}
	res := &ParallelResult{Switch: swName, Rep: rep, Workers: workers, Schema: schema, Packets: total}
	if pm := sw.Perf(); pm.HWLineRateMpps > 0 {
		res.RateMpps = pm.HWLineRateMpps
		return res, nil
	}
	res.RateMpps = float64(total) * 1000 / float64(elapsed.Nanoseconds()) // pkts/µs = Mpps
	return res, nil
}

// runParallelFrames is the shared timed core of the parallel experiments:
// shard the frames across `workers` dedicated switch workers, warm every
// lane once, then forward `packets` total and report (count, wall time).
func runParallelFrames(sw switches.Switch, frames [][]byte, packets, workers int) (int, time.Duration, error) {
	shards := trafficgen.Shards(frames, workers)

	// Per-goroutine state: a dedicated worker and its shard pre-cut into
	// batches. Cutting outside the timed region keeps the hot loop to
	// ProcessBatch calls only.
	type lane struct {
		w       switches.Worker
		batches [][][]byte
	}
	lanes := make([]*lane, workers)
	perWorker := packets / workers
	if perWorker < 1 {
		perWorker = 1
	}
	for i, shard := range shards {
		l := &lane{w: sw.NewWorker()}
		for off := 0; off < len(shard); off += parallelBatch {
			end := off + parallelBatch
			if end > len(shard) {
				end = len(shard)
			}
			l.batches = append(l.batches, shard[off:end])
		}
		lanes[i] = l
	}

	// Warm-up: one pass per worker over its shard (fills cache shards,
	// faults in the datapath snapshot).
	out := make([]dataplane.Verdict, parallelBatch)
	for _, l := range lanes {
		for _, b := range l.batches {
			if err := l.w.ProcessBatch(b, out); err != nil {
				return 0, 0, err
			}
		}
	}

	// Timed run: every worker forwards perWorker packets, cycling over its
	// batches. First error wins; the others finish their quota.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	counts := make([]int, workers)
	start := time.Now()
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			verdicts := make([]dataplane.Verdict, parallelBatch)
			done := 0
			for b := 0; done < perWorker; b++ {
				batch := l.batches[b%len(l.batches)]
				if err := l.w.ProcessBatch(batch, verdicts); err != nil {
					errs[i] = err
					return
				}
				done += len(batch)
			}
			counts[i] = done
		}(i, l)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, elapsed, nil
}

// ScalingWorkerCounts returns the worker counts of the scaling curve:
// doubling from 1 and capped at max, with max itself included (so
// -workers 6 measures 1, 2, 4, 6).
func ScalingWorkerCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var counts []int
	for w := 1; w < max; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, max)
}

// ParallelScaling measures one switch, schema and representation at each
// of the given worker counts. Speedup is reported relative to the 1-worker
// rate.
func ParallelScaling(swName, schema string, rep usecases.Representation, cfg Config, counts []int) ([]*ParallelResult, error) {
	var out []*ParallelResult
	base := 0.0
	for _, w := range counts {
		r, err := MeasureParallel(swName, schema, rep, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", schema, swName, rep, err)
		}
		if w == 1 {
			base = r.RateMpps
		}
		if base > 0 {
			r.Speedup = r.RateMpps / base
		}
		out = append(out, r)
	}
	return out, nil
}

// scalingTable sweeps ParallelScaling over schemas × every switch model ×
// reps.
func scalingTable(cfg Config, schemas []string, reps []usecases.Representation, counts []int) ([]*ParallelResult, error) {
	var out []*ParallelResult
	for _, schema := range schemas {
		for _, sw := range switches.ModelNames() {
			for _, rep := range reps {
				rows, err := ParallelScaling(sw, schema, rep, cfg, counts)
				if err != nil {
					return nil, err
				}
				out = append(out, rows...)
			}
		}
	}
	return out, nil
}

// ParallelTable runs the scaling curve (worker counts doubling up to
// cfg.Workers) under the default schema for every switch and the headline
// representations: the Table 1 pair plus the compiler-fused form.
func ParallelTable(cfg Config) ([]*ParallelResult, error) {
	return scalingTable(cfg, []string{packet.SchemaDefault},
		[]usecases.Representation{usecases.RepUniversal, usecases.RepGoto, usecases.RepFused},
		ScalingWorkerCounts(cfg.Workers))
}

// SchemaTable is the protocol-independent forwarding experiment: every
// shipped non-default schema over every switch model for the universal and
// goto representations, single-worker plus the cfg.Workers ceiling — enough
// to see both the programmable parser's base cost relative to the
// hand-written default path and whether it scales.
//
// OVS keys its EMC and megaflow layers on the program's match slots, so
// its cache hierarchy works here as on the default schema.
func SchemaTable(cfg Config) ([]*ParallelResult, error) {
	counts := []int{1}
	if cfg.Workers > 1 {
		counts = append(counts, cfg.Workers)
	}
	return scalingTable(cfg, []string{packet.SchemaVXLAN, packet.SchemaMPLS, packet.SchemaGTPU},
		[]usecases.Representation{usecases.RepUniversal, usecases.RepGoto}, counts)
}

// RenderParallel prints the scaling experiment.
func RenderParallel(w io.Writer, rows []*ParallelResult) {
	fmt.Fprintf(w, "Multi-core scaling (extension): aggregate Mpps over sharded workers (host: %d CPUs)\n",
		runtime.NumCPU())
	fmt.Fprintf(w, "%-10s %-11s %-9s %-12s %-8s\n", "switch", "rep", "workers", "rate[Mpps]", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-11s %-9d %-12.3f %-8.2f\n", r.Switch, r.Rep, r.Workers, r.RateMpps, r.Speedup)
	}
}

// RenderSchemas prints the protocol-independent forwarding experiment.
func RenderSchemas(w io.Writer, rows []*ParallelResult) {
	fmt.Fprintln(w, "Schemas (extension): shipped non-default schemas through the programmable parser")
	fmt.Fprintf(w, "%-8s %-10s %-11s %-9s %-12s %-8s\n",
		"schema", "switch", "rep", "workers", "rate[Mpps]", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %-11s %-9d %-12.3f %-8.2f\n",
			r.Schema, r.Switch, r.Rep, r.Workers, r.RateMpps, r.Speedup)
	}
}
