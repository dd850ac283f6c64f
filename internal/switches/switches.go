// Package switches models the four programmable switches of the paper's
// evaluation (§5): Open vSwitch, ESwitch, Lagopus and a NoviFlow-style
// hardware OpenFlow switch. All models execute pipelines functionally via
// internal/dataplane; they differ in the mechanisms that made the paper's
// measurements come out the way they did:
//
//   - OVS collapses the pipeline into a single flow cache on the fly —
//     representation-agnostic by construction.
//   - ESwitch compiles each table to the best classifier template its
//     shape admits — normalization directly improves its templates.
//   - Lagopus runs a generic interpreted datapath with tuple-space tables
//     — slower overall and insensitive to representation.
//   - NoviFlow is a TCAM ASIC: line-rate lookups whatever the tables look
//     like, a per-stage pipeline latency, and a control path whose
//     flow-mod processing contends with forwarding (the reactiveness
//     experiment's mechanism).
package switches

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// errNotProgrammed is returned when packets are offered to a switch before
// Install.
var errNotProgrammed = errors.New("switches: no pipeline installed")

// Option configures a switch model at construction time.
type Option func(*modelCfg)

// modelCfg carries cross-model construction options.
type modelCfg struct {
	reg *telemetry.Registry
	dec *packet.Decoder
}

// WithTelemetry attaches a metrics registry to the model: Install compiles
// the datapath with per-stage lookup counters and a processing-latency
// histogram registered there (see dataplane.WithTelemetry), in addition to
// whatever the model reports through Stats. A nil registry is a no-op, so
// callers can pass an optional registry through unconditionally. Without
// this option the forwarding path carries no instrumentation at all.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *modelCfg) { c.reg = reg }
}

// WithSchema sets the header schema the model forwards: frames are parsed
// by the given compiled parse-graph decoder into per-worker FieldViews,
// and Install compiles pipelines against the decoder's header schema
// (dataplane.WithSchema), so programs may match any field the schema
// defines — VXLAN VNIs, MPLS labels, GTP-U TEIDs or fuzzer-invented
// stacks. Without this option, or with a nil decoder, the model forwards
// the default schema (packet.DefaultDecoder).
//
// OVS keys its caches on the slots the installed program matches, so its
// cache hierarchy works the same on every schema.
func WithSchema(dec *packet.Decoder) Option {
	return func(c *modelCfg) { c.dec = dec }
}

func buildCfg(opts []Option) modelCfg {
	var c modelCfg
	for _, o := range opts {
		o(&c)
	}
	if c.dec == nil {
		c.dec = packet.DefaultDecoder()
	}
	return c
}

// Switch is a programmable switch model: install a pipeline, process
// packets, apply control-plane updates.
//
// Concurrency contract: ProcessFrame, ProcessBatch and ApplyMods are safe
// to call from any number of goroutines — every mutable per-packet
// structure (decode rings, metadata registers, flow caches) is sharded
// per worker, and shared statistics are atomic. The packet-level Process
// and the state inspectors (CacheSize, Templates, ...) remain
// single-threaded conveniences. Install must not race with forwarding on
// the same moment's verdict expectations, but is pointer-swap safe: in-flight
// workers finish on the old program and pick up the new one on their next
// frame.
type Switch interface {
	// Name identifies the model ("ovs", "eswitch", ...).
	Name() string
	// Install programs the pipeline, replacing any previous program: a
	// from-scratch compile, whatever was installed before.
	Install(p *mat.Pipeline) error
	// Update brings the installed program up to p, which must be the
	// pipeline last installed with only the entries of the dirty stages
	// changed: those stages are recompiled, every other compiled table is
	// shared with the snapshot in-flight workers are still using, and the
	// new snapshot is published with the same pointer swap as Install —
	// the cost of a barrier is what its batch touched. Fused programs
	// (mat.Pipeline.Fused) are install-time-only: Update recompiles them
	// whole.
	Update(p *mat.Pipeline, dirty []int) error
	// Process forwards one default-schema packet: an adapter that loads
	// it into a FieldView and runs the model's view path on it (header
	// rewrites land in pkt where the model applies them). Single-threaded;
	// forwarding callers go through ProcessFrame/ProcessBatch or NewWorker.
	Process(pkt *packet.Packet) (dataplane.Verdict, error)
	// ProcessFrame forwards one wire-format frame: header parsing
	// (including IPv4 checksum verification) plus Process — the
	// end-to-end per-packet work a software datapath performs, and what
	// the Table 1 measurements time. Malformed frames drop.
	ProcessFrame(frame []byte) (dataplane.Verdict, error)
	// ProcessBatch forwards a batch of wire-format frames, writing the
	// i-th verdict into out[i] (which must hold at least len(frames)).
	// Batching amortizes worker checkout, datapath revalidation checks and
	// statistics flushes over the whole batch — the hot path of the
	// parallel measurement harness.
	ProcessBatch(frames [][]byte, out []dataplane.Verdict) error
	// NewWorker returns a dedicated per-goroutine processing context
	// sharing this switch's installed program and statistics. A Worker is
	// not itself safe for concurrent use; one goroutine, one Worker. For
	// peak parallel rates drive Workers directly — the Switch-level
	// ProcessFrame/ProcessBatch check a worker out of an internal pool per
	// call.
	NewWorker() Worker
	// ApplyMods applies a control-plane update of n flow modifications,
	// invalidating whatever state the model caches.
	ApplyMods(n int) error
	// Counters snapshots the per-entry packet counters of one pipeline
	// stage (the OpenFlow multipart flow-stats view). Counts survive an
	// Update that leaves the stage clean; the counters of a recompiled
	// (dirty) stage, and all counters on Install, restart at zero.
	Counters(stage int) []uint64
	// Perf exposes the model's analytic performance parameters.
	Perf() PerfModel
	// Stats snapshots the model's runtime telemetry — per-stage match
	// counts for every model, plus model-specific state such as OVS's
	// cache-layer hits and sizes. This is the unified observability
	// surface (telemetry.Provider); it is safe to call concurrently with
	// forwarding.
	Stats() telemetry.Snapshot
}

// ModelNames lists the four evaluated switch models in the paper's column
// order.
func ModelNames() []string { return []string{"ovs", "eswitch", "lagopus", "noviflow"} }

// New constructs a switch model by name. Options (e.g. WithTelemetry)
// pass through to the model constructor. This is the single factory the
// measurement harness (internal/bench) and the differential fuzzing
// harness (internal/difftest) build every model through.
func New(name string, opts ...Option) (Switch, error) {
	switch name {
	case "ovs":
		return NewOVS(opts...), nil
	case "eswitch":
		return NewESwitch(opts...), nil
	case "lagopus":
		return NewLagopus(opts...), nil
	case "noviflow":
		return NewNoviFlow(opts...), nil
	default:
		return nil, fmt.Errorf("switches: unknown model %q", name)
	}
}

// Switch models implement the unified stats surface.
var (
	_ telemetry.Provider = (*OVS)(nil)
	_ telemetry.Provider = (*ESwitch)(nil)
	_ telemetry.Provider = (*Lagopus)(nil)
	_ telemetry.Provider = (*NoviFlow)(nil)
)

// Worker is a per-goroutine forwarding context of one switch: its own
// decode ring, metadata registers and (for cache-based models) flow
// cache shard. Workers observe the parent switch's Install/ApplyMods via
// cheap per-frame epoch checks.
type Worker interface {
	// ProcessFrame forwards one wire frame; malformed frames drop.
	ProcessFrame(frame []byte) (dataplane.Verdict, error)
	// ProcessBatch forwards frames into out[:len(frames)].
	ProcessBatch(frames [][]byte, out []dataplane.Verdict) error
}

// dpWorker is the worker of the datapath-driven models (ESwitch, Lagopus,
// NoviFlow): a frame-decode arena over the shared installed pipeline. All
// per-worker mutable state — the FieldView ring and the pipeline scratch
// Ctx — lives in the arena; reinstalls surface as a pipeline pointer
// change that ProcessFrames absorbs on the next batch.
type dpWorker struct {
	src   *atomic.Pointer[dataplane.Pipeline]
	arena *dataplane.FrameBatch
	// opts carries the model's per-packet processing options (the Lagopus
	// record lift); nil for plain forwarding.
	opts *dataplane.ProcessOpts
	one  [1][]byte
	vout [1]dataplane.Verdict
}

// liftRecord models the Lagopus-style generic record construction per
// packet (the interpreter's per-packet metadata overhead): a record is
// built and discarded before every traversal, and a packet that yields no
// record drops.
func liftRecord(view *packet.FieldView) bool { return len(view.Record()) > 0 }

// liftOpts runs liftRecord on every decoded frame. Stateless, so all lift
// workers share it.
var liftOpts = dataplane.NewProcessOpts(dataplane.WithDecodeHook(liftRecord))

// ProcessFrame forwards one frame as a single-frame batch.
func (w *dpWorker) ProcessFrame(frame []byte) (dataplane.Verdict, error) {
	w.one[0] = frame
	if err := w.ProcessBatch(w.one[:], w.vout[:]); err != nil {
		return dataplane.Verdict{}, err
	}
	return w.vout[0], nil
}

// ProcessBatch forwards a frame batch through the wire-ingest path with
// one datapath revalidation check.
func (w *dpWorker) ProcessBatch(frames [][]byte, out []dataplane.Verdict) error {
	dp := w.src.Load()
	if dp == nil {
		return errNotProgrammed
	}
	return dp.ProcessFrames(frames, w.arena, out, w.opts)
}

// dpSwitch is the shared chassis of the datapath-driven models (ESwitch,
// Lagopus, NoviFlow): the atomically swapped compiled pipeline plus a pool
// of workers behind the switch-level frame APIs, making ProcessFrame and
// ProcessBatch safe for concurrent callers.
type dpSwitch struct {
	dp   atomic.Pointer[dataplane.Pipeline]
	pool sync.Pool
	lift bool
	// ctx and view back the single-threaded packet-level Process; ctx is
	// re-provisioned with every published snapshot.
	ctx  *dataplane.Ctx
	view *packet.FieldView
	// reg is the optional metrics registry (WithTelemetry); Install passes
	// it to dataplane.Compile so per-stage instruments register there.
	reg *telemetry.Registry
	// dec is the decoder of the schema the model forwards (WithSchema).
	dec *packet.Decoder
}

// applyCfg consumes the shared construction options.
func (s *dpSwitch) applyCfg(cfg modelCfg) {
	s.reg = cfg.reg
	s.dec = cfg.dec
}

// dpOpts builds the dataplane compile options matching the model's
// configuration.
func (s *dpSwitch) dpOpts() []dataplane.Option {
	return []dataplane.Option{dataplane.WithTelemetry(s.reg), dataplane.WithSchema(s.dec.Schema())}
}

// Process forwards one default-schema packet through the installed
// pipeline — the one packet-level adapter of the datapath-driven models,
// with Lagopus's record lift applied as on its frame path. Header
// rewrites land in pkt.
func (s *dpSwitch) Process(pkt *packet.Packet) (dataplane.Verdict, error) {
	dp := s.dp.Load()
	if dp == nil {
		return dataplane.Verdict{}, errNotProgrammed
	}
	if s.view == nil {
		s.view = packet.DefaultDecoder().NewView()
	}
	s.view.LoadPacket(pkt)
	if s.lift && !liftRecord(s.view) {
		return dataplane.Verdict{Drop: true}, nil
	}
	v, err := dp.ProcessView(s.view, s.ctx)
	s.view.StorePacket(pkt)
	return v, err
}

// install compiles p from scratch with the model's template selector and
// publishes it; live workers pick it up on their next frame.
func (s *dpSwitch) install(model string, p *mat.Pipeline, sel dataplane.TemplateSelector) error {
	dp, err := dataplane.Compile(p, sel, s.dpOpts()...)
	if err != nil {
		return fmt.Errorf("%s: %w", model, err)
	}
	s.publish(dp)
	return nil
}

// update recompiles the dirty stages of the installed program from p and
// publishes the new snapshot, which shares every clean table with the old.
func (s *dpSwitch) update(model string, p *mat.Pipeline, dirty []int) error {
	dp, err := recompile(model, s.dp.Load(), p, dirty)
	if err != nil {
		return err
	}
	s.publish(dp)
	return nil
}

// recompile is the step every model's Update starts with: the installed
// snapshot's dirty stages lowered afresh from p.
func recompile(model string, installed *dataplane.Pipeline, p *mat.Pipeline, dirty []int) (*dataplane.Pipeline, error) {
	if installed == nil {
		return nil, errNotProgrammed
	}
	dp, err := installed.Recompile(p, dirty)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", model, err)
	}
	return dp, nil
}

func (s *dpSwitch) publish(dp *dataplane.Pipeline) {
	s.ctx = dp.NewCtx()
	s.dp.Store(dp)
}

func (s *dpSwitch) newDPWorker() *dpWorker {
	w := &dpWorker{src: &s.dp, arena: dataplane.NewFrameBatch(s.dec).Attach(s.reg)}
	if s.lift {
		w.opts = liftOpts
	}
	return w
}

func (s *dpSwitch) getWorker() *dpWorker {
	if w, ok := s.pool.Get().(*dpWorker); ok {
		return w
	}
	return s.newDPWorker()
}

// ProcessFrame checks a worker out of the pool and forwards one frame.
// Safe for concurrent use.
func (s *dpSwitch) ProcessFrame(frame []byte) (dataplane.Verdict, error) {
	w := s.getWorker()
	v, err := w.ProcessFrame(frame)
	s.pool.Put(w)
	return v, err
}

// ProcessBatch checks a worker out of the pool and forwards a frame batch.
// Safe for concurrent use.
func (s *dpSwitch) ProcessBatch(frames [][]byte, out []dataplane.Verdict) error {
	w := s.getWorker()
	err := w.ProcessBatch(frames, out)
	s.pool.Put(w)
	return err
}

// NewWorker returns a dedicated per-goroutine forwarding context.
func (s *dpSwitch) NewWorker() Worker { return s.newDPWorker() }

// Counters snapshots a stage's per-entry packet counters.
func (s *dpSwitch) Counters(stage int) []uint64 {
	dp := s.dp.Load()
	if dp == nil {
		return nil
	}
	return dp.Counters(stage)
}

// pipelineSnapshot builds the shared part of every model's Stats: the
// installed pipeline's depth and per-stage matched-packet counts (summed
// from the per-entry counters, so it costs nothing on the forwarding
// path).
func pipelineSnapshot(name string, dp *dataplane.Pipeline) telemetry.Snapshot {
	snap := telemetry.Snapshot{Name: name}
	if dp == nil {
		return snap
	}
	snap.Counters = make(map[string]uint64, dp.Depth())
	snap.Gauges = map[string]float64{"pipeline_depth": float64(dp.Depth())}
	for i := 0; i < dp.Depth(); i++ {
		var sum uint64
		for _, c := range dp.Counters(i) {
			sum += c
		}
		snap.Counters[fmt.Sprintf("table%d_matched", i)] = sum
	}
	if fs := dp.Fused(); fs != nil {
		snap.Gauges["fdd_rules"] = float64(fs.Rules)
		snap.Gauges["fdd_nodes"] = float64(fs.Nodes)
		snap.Gauges["fdd_leaves"] = float64(fs.Leaves)
		snap.Gauges["fdd_depth"] = float64(fs.Depth)
	}
	return snap
}

// Stats reports the pipeline view shared by the datapath-driven models;
// the outer models override Name via their own Stats wrappers.
func (s *dpSwitch) pipelineStats(name string) telemetry.Snapshot {
	return pipelineSnapshot(name, s.dp.Load())
}

// PerfModel carries the analytic part of a switch's performance behavior.
// Software models report zero HWLineRateMpps (throughput is the measured
// packet-processing rate); the hardware model forwards at line rate and
// derives latency and update behavior from these constants.
type PerfModel struct {
	// HWLineRateMpps, when positive, caps/fixes throughput at the
	// hardware line rate regardless of software service time (64-byte
	// packets on a 10 Gbps port ≈ 14.88 Mpps; the paper's NoviFlow test
	// reached ~10.7 Mpps through its harness).
	HWLineRateMpps float64
	// BaseLatencyNs is the fixed port-to-port latency.
	BaseLatencyNs float64
	// PerTableLatencyNs is added per pipeline stage traversed — the
	// "longer pipeline" cost the paper observes for goto chaining on the
	// NoviFlow (§5: 6.4 → 8.4 µs).
	PerTableLatencyNs float64
	// QueueFactor scales measured software service time into reported
	// latency (a stand-in for batching/queueing in software datapaths).
	QueueFactor float64
	// ModStallNsBase and ModStallNsPerEntry model the forwarding stall
	// caused by one flow-mod: hardware TCAM updates shuffle entries, so
	// the stall grows with the updated table's size.
	ModStallNsBase     float64
	ModStallNsPerEntry float64
}

// Verdicts carry the number of tables actually traversed
// (dataplane.Verdict.Tables); the benchmark harness feeds that into
// PerTableLatencyNs rather than guessing from static pipeline shape.
