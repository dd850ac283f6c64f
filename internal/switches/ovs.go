package switches

import (
	"fmt"
	"sync"
	"sync/atomic"

	"manorm/internal/classifier"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// OVS models Open vSwitch's datapath architecture: a slow path that
// interprets the installed multi-table pipeline (tuple space search per
// table, as in ovs-vswitchd) and per-worker flow caches consulted first.
// A cache hit costs one hash probe no matter how the pipeline was
// represented — which is why the paper finds OVS agnostic to
// normalization (§5: "the datapath collapses OpenFlow tables into a
// single flow cache; in other words, OVS explicitly denormalizes the
// pipeline").
//
// Both cache layers key on the slots the installed program matches (see
// flowKey), so the hierarchy works the same on every header schema.
//
// Sharding mirrors the real datapath's per-PMD-thread design: every
// worker owns a private EMC (exact-match microflow cache) and megaflow
// cache, filled independently from the shared immutable slow path.
// Control-plane updates bump a revalidation epoch; each worker notices the
// stale epoch on its next frame and flushes its shard — no locks anywhere
// on the forwarding path. The layer-hit statistics are shared atomics.
type OVS struct {
	// slow is the compiled slow-path pipeline, swapped atomically on
	// Install; workers pick up the new program on their next frame.
	slow atomic.Pointer[dataplane.Pipeline]
	// epoch is the revalidation generation: ApplyMods increments it, and a
	// worker whose local epoch lags flushes both cache layers.
	epoch atomic.Uint64
	// Misses, Hits and MegaHits count per-layer cache behavior (Misses =
	// slow-path traversals), aggregated over all workers.
	//
	// Deprecated: read these through Stats() ("emc_hits", "megaflow_hits",
	// "slow_misses") — the unified telemetry surface. The fields remain
	// exported so existing callers keep compiling.
	Misses, Hits, MegaHits atomic.Uint64
	// prim is the worker behind the single-threaded packet-level Process
	// API and the cache-size inspectors; view is the default-schema view
	// Process loads packets into.
	prim *ovsWorker
	view *packet.FieldView
	pool sync.Pool
	// reg is the optional metrics registry (WithTelemetry).
	reg *telemetry.Registry
	// dec is the decoder of the schema the model forwards (WithSchema).
	dec *packet.Decoder
}

// ovsCacheMax bounds each EMC shard like the real EMC's fixed size;
// beyond it, new flows evict nothing and take the megaflow/slow path (a
// simple, honest policy).
const ovsCacheMax = 1 << 15

// NewOVS creates an unprogrammed OVS model. With WithTelemetry, the
// cache-layer view (hits per layer, entry counts, hit ratio) is folded
// into the registry as gauge functions reading the shared atomics — zero
// added cost on the forwarding path.
func NewOVS(opts ...Option) *OVS {
	s := &OVS{}
	cfg := buildCfg(opts)
	s.reg, s.dec = cfg.reg, cfg.dec
	s.prim = s.newOVSWorker()
	if s.reg != nil {
		s.reg.GaugeFunc("ovs.emc_hits", func() float64 { return float64(s.Hits.Load()) })
		s.reg.GaugeFunc("ovs.megaflow_hits", func() float64 { return float64(s.MegaHits.Load()) })
		s.reg.GaugeFunc("ovs.slow_misses", func() float64 { return float64(s.Misses.Load()) })
		s.reg.GaugeFunc("ovs.emc_entries", func() float64 { return float64(s.CacheSize()) })
		s.reg.GaugeFunc("ovs.megaflow_entries", func() float64 { return float64(s.MegaflowCount()) })
	}
	return s
}

// Name returns "ovs".
func (s *OVS) Name() string { return "ovs" }

// Install programs the slow path, resets the statistics and invalidates
// every worker's caches (the pipeline pointer swap itself is the
// invalidation signal; the fresh primary worker starts empty).
func (s *OVS) Install(p *mat.Pipeline) error {
	dp, err := dataplane.Compile(p, dataplane.FixedTemplate(classifier.ForceTupleSpace),
		dataplane.WithTelemetry(s.reg), dataplane.WithSchema(s.dec.Schema()))
	if err != nil {
		return fmt.Errorf("ovs: %w", err)
	}
	s.slow.Store(dp)
	s.prim = s.newOVSWorker()
	s.Reset()
	return nil
}

// Update reprograms the dirty stages of the slow path and bumps the
// revalidation epoch, so every shard's EMC and megaflow cache is flushed
// — and re-keyed on the new program's match slots — before it forwards on
// the new snapshot. The layer-hit statistics keep counting.
func (s *OVS) Update(p *mat.Pipeline, dirty []int) error {
	dp, err := recompile("ovs", s.slow.Load(), p, dirty)
	if err != nil {
		return err
	}
	s.slow.Store(dp)
	s.epoch.Add(1)
	return nil
}

// ovsWorker is one datapath shard: private EMC + megaflow cache, their
// key layout, slow-path registers and wildcard trace buffer.
type ovsWorker struct {
	parent *OVS
	slow   *dataplane.Pipeline
	epoch  uint64
	ctx    *dataplane.Ctx
	trace  *dataplane.Trace
	key    *flowKey
	cache  map[string]dataplane.Verdict
	mega   *megaflowCache
	// direct is set when the installed program is pre-fused
	// (mat.Pipeline.Fused): the caches exist to amortize multi-table
	// traversal, and fusion already collapsed the pipeline into one
	// first-match structure — the compile-time analogue of the megaflow
	// cache itself — so the shard forwards through it directly instead of
	// stacking microflow hashing on top of an O(1) datapath.
	direct bool
	// pendHits/pendMega/pendMisses accumulate layer counts locally during a
	// frame or batch; flushStats drains them to the shared atomics once per
	// call (amortizing the atomic traffic) and on Reset (so a snapshot taken
	// right after Reset cannot see a late flush's residue).
	pendHits, pendMega, pendMisses uint64
	// arena is the shard's frame-decode ring.
	arena *dataplane.FrameBatch
	one   [1][]byte
	vout  [1]dataplane.Verdict
}

func (s *OVS) newOVSWorker() *ovsWorker {
	return &ovsWorker{
		parent: s,
		trace:  dataplane.NewTrace(),
		cache:  make(map[string]dataplane.Verdict, 4096),
		mega:   newMegaflowCache(),
		arena:  dataplane.NewFrameBatch(s.dec).Attach(s.reg),
	}
}

func (w *ovsWorker) flush() {
	for k := range w.cache {
		delete(w.cache, k)
	}
	w.mega.flush()
}

// refresh revalidates the shard: a swapped slow path or a bumped epoch
// flushes the local caches; a swapped slow path also re-provisions the
// metadata registers and re-keys the caches on its match slots.
func (w *ovsWorker) refresh() (*dataplane.Pipeline, error) {
	slow := w.parent.slow.Load()
	if slow == nil {
		return nil, errNotProgrammed
	}
	if slow != w.slow {
		w.slow = slow
		w.ctx = slow.NewCtx()
		w.key = newFlowKey(slow)
		w.direct = slow.Fused() != nil
		w.flush()
	}
	if e := w.parent.epoch.Load(); e != w.epoch {
		w.epoch = e
		w.flush()
	}
	return slow, nil
}

// process consults the EMC, then the megaflow cache, then the slow path —
// the OVS datapath lookup chain — accumulating layer hits into the
// shard's pending counters (drained to the shared atomics by flushStats,
// per frame or per batch). Slow-path traversals trace the consulted
// header bits and install a megaflow covering every microflow that agrees
// on them.
//
// Caveat, as in the real caches: cached entries replay the *verdict* (port
// or drop), so the model is exact for forwarding workloads;
// header-rewriting actions are applied only on the slow path. The
// benchmark workloads (gateway & load balancer) are pure forwarding.
func (w *ovsWorker) process(slow *dataplane.Pipeline, view *packet.FieldView) (dataplane.Verdict, error) {
	if w.direct {
		// Pre-fused program: forward through the decision structure
		// directly (counted as slow-path traversals — that is literally
		// what they are; there is no cache layer in front).
		w.pendMisses++
		return slow.ProcessView(view, w.ctx)
	}
	k := w.key
	present := k.read(view)
	if v, ok := w.cache[string(k.exact(present))]; ok {
		w.pendHits++
		return v, nil
	}
	v, ok := w.mega.lookup(k, present)
	if ok {
		w.pendMega++
	} else {
		w.pendMisses++
		var err error
		if v, err = slow.ProcessViewTraced(view, w.ctx, w.trace); err != nil {
			return v, err
		}
		w.mega.insert(k, present, w.trace, v)
	}
	if len(w.cache) < ovsCacheMax {
		w.cache[string(k.exact(present))] = v
	}
	return v, nil
}

// flushStats drains the shard's pending layer counts into the shared
// atomics and zeroes them.
func (w *ovsWorker) flushStats() {
	if w.pendHits > 0 {
		w.parent.Hits.Add(w.pendHits)
		w.pendHits = 0
	}
	if w.pendMega > 0 {
		w.parent.MegaHits.Add(w.pendMega)
		w.pendMega = 0
	}
	if w.pendMisses > 0 {
		w.parent.Misses.Add(w.pendMisses)
		w.pendMisses = 0
	}
}

// ProcessFrame forwards one frame as a single-frame batch.
func (w *ovsWorker) ProcessFrame(frame []byte) (dataplane.Verdict, error) {
	w.one[0] = frame
	if err := w.ProcessBatch(w.one[:], w.vout[:]); err != nil {
		return dataplane.Verdict{}, err
	}
	return w.vout[0], nil
}

// ProcessBatch forwards a frame batch with one revalidation check and one
// statistics flush for the whole batch: each frame decodes through the
// arena's view ring and runs the EMC → megaflow → slow lookup chain.
func (w *ovsWorker) ProcessBatch(frames [][]byte, out []dataplane.Verdict) error {
	if len(out) < len(frames) {
		return fmt.Errorf("switches: verdict buffer %d too small for batch of %d", len(out), len(frames))
	}
	slow, err := w.refresh()
	if err != nil {
		return err
	}
	defer w.flushStats()
	for i, f := range frames {
		view, err := w.arena.Decode(f)
		if err != nil {
			out[i] = dataplane.Verdict{Drop: true}
			continue
		}
		v, err := w.process(slow, view)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

func (s *OVS) getWorker() *ovsWorker {
	if w, ok := s.pool.Get().(*ovsWorker); ok {
		return w
	}
	return s.newOVSWorker()
}

// ProcessFrame checks a worker shard out of the pool and forwards one
// frame. Safe for concurrent use.
func (s *OVS) ProcessFrame(frame []byte) (dataplane.Verdict, error) {
	w := s.getWorker()
	v, err := w.ProcessFrame(frame)
	s.pool.Put(w)
	return v, err
}

// ProcessBatch checks a worker shard out of the pool and forwards a frame
// batch. Safe for concurrent use.
func (s *OVS) ProcessBatch(frames [][]byte, out []dataplane.Verdict) error {
	w := s.getWorker()
	err := w.ProcessBatch(frames, out)
	s.pool.Put(w)
	return err
}

// NewWorker returns a dedicated datapath shard (its own EMC and megaflow
// cache) for one forwarding goroutine — the model's PMD thread.
func (s *OVS) NewWorker() Worker { return s.newOVSWorker() }

// Process forwards one default-schema packet through the primary shard
// (single-threaded convenience; the cache inspectors below report this
// shard's state). Header rewrites of a slow-path traversal land in pkt.
func (s *OVS) Process(pkt *packet.Packet) (dataplane.Verdict, error) {
	slow, err := s.prim.refresh()
	if err != nil {
		return dataplane.Verdict{}, err
	}
	if s.view == nil {
		s.view = packet.DefaultDecoder().NewView()
	}
	if slow.Schema() != s.view.Schema() {
		return dataplane.Verdict{}, fmt.Errorf("ovs: Process takes default-schema packets; the model forwards schema %s", slow.Schema().Name)
	}
	s.view.LoadPacket(pkt)
	v, err := s.prim.process(slow, s.view)
	s.view.StorePacket(pkt)
	s.prim.flushStats()
	return v, err
}

// ApplyMods triggers revalidation: the primary shard is flushed eagerly,
// and every other worker flushes on its next frame via the epoch bump.
func (s *OVS) ApplyMods(int) error {
	s.epoch.Add(1)
	s.prim.epoch = s.epoch.Load()
	s.prim.flush()
	return nil
}

// Reset zeroes the layer-hit statistics. Per-worker pending accumulators
// are drained first: every pooled shard and the primary flush their
// in-flight counts into the atomics before those are cleared, so a Stats
// snapshot taken right after Reset reads zero rather than the residue of
// a not-yet-flushed batch. Dedicated NewWorker shards owned by caller
// goroutines cannot be drained here; quiesce them before Reset.
func (s *OVS) Reset() {
	var drained []*ovsWorker
	for {
		w, ok := s.pool.Get().(*ovsWorker)
		if !ok {
			break
		}
		w.flushStats()
		drained = append(drained, w)
	}
	s.prim.flushStats()
	s.Hits.Store(0)
	s.MegaHits.Store(0)
	s.Misses.Store(0)
	for _, w := range drained {
		s.pool.Put(w)
	}
}

// Stats reports the unified telemetry view: the slow-path pipeline's
// per-stage match counts plus the cache-layer breakdown — per-layer hit
// counters, entry counts of the primary shard's caches, and the overall
// cache hit ratio (the quantity behind OVS's representation-agnosticism).
func (s *OVS) Stats() telemetry.Snapshot {
	snap := pipelineSnapshot("ovs", s.slow.Load())
	if snap.Counters == nil {
		snap.Counters = make(map[string]uint64, 3)
	}
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]float64, 3)
	}
	hits, mega, misses := s.Hits.Load(), s.MegaHits.Load(), s.Misses.Load()
	snap.Counters["emc_hits"] = hits
	snap.Counters["megaflow_hits"] = mega
	snap.Counters["slow_misses"] = misses
	snap.Gauges["emc_entries"] = float64(s.CacheSize())
	snap.Gauges["megaflow_entries"] = float64(s.MegaflowCount())
	if total := hits + mega + misses; total > 0 {
		snap.Gauges["cache_hit_ratio"] = float64(hits+mega) / float64(total)
	}
	return snap
}

// Perf returns the latency calibration (see ESwitch.Perf for the formula).
func (s *OVS) Perf() PerfModel {
	return PerfModel{BaseLatencyNs: 400_000, QueueFactor: 500}
}

// CacheSize reports the number of cached exact-match flows (EMC) in the
// primary shard.
func (s *OVS) CacheSize() int { return len(s.prim.cache) }

// MegaflowCount reports the number of cached megaflows in the primary
// shard.
func (s *OVS) MegaflowCount() int { return s.prim.mega.Entries }

// Counters snapshots a stage's per-entry packet counters.
func (s *OVS) Counters(stage int) []uint64 {
	dp := s.slow.Load()
	if dp == nil {
		return nil
	}
	return dp.Counters(stage)
}
