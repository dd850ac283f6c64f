package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"manorm/internal/confluence"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/telemetry"
)

// ErrFrozen reports a write attempted while the fabric is degraded to its
// read-only frozen epoch: a previous epoch failed to reach quorum and no
// reconcile has restored it yet. Reads (dumps, stats, convergence checks)
// remain available; Reconcile unfreezes once enough members resync.
var ErrFrozen = errors.New("fabric: frozen epoch (read-only until quorum restored)")

// QuorumError reports the epoch that failed to reach quorum and froze the
// fabric. It unwraps to ErrFrozen so callers can branch on a single
// sentinel for both "froze now" and "was already frozen".
type QuorumError struct {
	// Epoch is the epoch that failed to commit.
	Epoch uint64
	// Acked and Quorum are the acknowledgment count achieved and required.
	Acked, Quorum int
	// Failed names the members that did not acknowledge in time.
	Failed []string
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("fabric: epoch %d reached %d/%d acks (failed: %v): %v",
		e.Epoch, e.Acked, e.Quorum, e.Failed, ErrFrozen)
}

func (e *QuorumError) Unwrap() error { return ErrFrozen }

// MemberSpec describes one switch the fabric drives: a name (used as the
// telemetry key and in reports) and a dialer for its control channel. The
// dialer is handed to the openflow client, which redials through it on
// every reconnect — fault-injected dialers (faultconn) plug in here.
type MemberSpec struct {
	Name string
	Dial func() (net.Conn, error)
}

// Config tunes the fabric's update protocol.
type Config struct {
	// Mode selects the placement (default Replicate).
	Mode PlacementMode
	// Quorum is the number of members that must acknowledge an epoch's
	// barrier for the epoch to commit; 0 means all members. An epoch that
	// misses quorum freezes the fabric (ErrFrozen).
	Quorum int
	// EpochTimeout bounds one member's share of an epoch (sends plus
	// barrier, including the client's internal retries) and one member's
	// resync. Default 2s.
	EpochTimeout time.Duration
	// RPCTimeout is the per-attempt deadline of each member's client, and
	// the budget of the cheap liveness probe that gates automatic resync.
	// Default 250ms.
	RPCTimeout time.Duration
	// Retry is the clients' backoff schedule; the zero value selects a
	// fast fabric-oriented schedule (2ms doubling to 100ms, 4 retries).
	Retry openflow.RetryPolicy
	// Seed drives every random draw the fabric makes (per-member delivery
	// interleavings, per-member retry jitter streams), making runs
	// reproducible.
	Seed int64
	// SemanticCommute arms the confluence verifier as a second opinion on
	// the syntactic commutation pre-check: batch pairs the syntactic test
	// conservatively flags are re-judged semantically (every interleaving
	// reaches one fingerprint, with well-founded compensation) and
	// refuted conflicts share an epoch after all. Refutations are counted
	// as commute.false_conflicts. The syntactic test stays the fast path —
	// the verifier only runs on pairs it rejects.
	SemanticCommute bool
	// ConfluenceOpts tunes the semantic oracle's enumeration budgets; the
	// zero value takes the verifier defaults with Seed as the sampling
	// seed.
	ConfluenceOpts confluence.Options
}

// Member is one fabric-managed switch: its control client, the fabric's
// desired pipeline for it, and its epoch progress.
type Member struct {
	Name string

	client  *openflow.Client
	desired *mat.Pipeline // guarded by the fabric mutex

	acked      atomic.Uint64 // last epoch this member acknowledged
	lagging    atomic.Bool   // missed an epoch; awaiting resync
	resyncs    atomic.Int64  // successful reconciles after lagging
	epochFails atomic.Int64  // epochs this member failed to ack in time
}

// Client exposes the member's control channel (stats, dumps, telemetry).
func (m *Member) Client() *openflow.Client { return m.client }

// AckedEpoch reports the last epoch the member acknowledged.
func (m *Member) AckedEpoch() uint64 { return m.acked.Load() }

// Lagging reports whether the member missed an epoch and has not been
// resynchronized yet.
func (m *Member) Lagging() bool { return m.lagging.Load() }

// Resyncs reports how many times the member was resynchronized.
func (m *Member) Resyncs() int64 { return m.resyncs.Load() }

// Fabric drives N agent-backed switches as one logical program under an
// epoch-stamped update protocol: every Apply is one epoch, delivered to
// each routed member through its resilient client (resend queue, bounded
// retries with backoff) and committed by a quorum of barrier
// acknowledgments. Members that miss an epoch are marked lagging and
// resynchronized — their client's resend queue redelivers queued mods on
// reconnect, and a dump-and-diff full state transfer repairs any residual
// divergence. If an epoch misses quorum the fabric freezes read-only at
// the last committed epoch until Reconcile restores quorum.
type Fabric struct {
	cfg     Config
	mode    PlacementMode
	start   uint8 // entry-stage index, for partition routing
	members []*Member

	mu  sync.Mutex // serializes epochs, reconciles and desired-state access
	rng *rand.Rand // delivery interleavings; guarded by mu

	epoch     atomic.Uint64 // last epoch issued
	committed atomic.Uint64 // last epoch that reached quorum
	frozen    atomic.Bool

	epochsCommitted atomic.Int64
	epochsDegraded  atomic.Int64
	freezes         atomic.Int64
	conflicts       atomic.Int64 // non-commuting batch pairs flagged
	falseConflicts  atomic.Int64 // syntactic conflicts the semantic oracle refuted
	waves           atomic.Int64 // serialized waves issued by ApplyConcurrent
}

// New connects a fabric to its members and records the desired placement
// of src on them. The switches must already be provisioned with the same
// placement — Place(src, len(specs), cfg.Mode) — which New recomputes; the
// usual harness calls Place, installs each returned pipeline into an
// agent, and then hands New the dialers.
func New(src *mat.Pipeline, specs []MemberSpec, cfg Config) (*Fabric, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fabric: no members")
	}
	if cfg.Mode == "" {
		cfg.Mode = Replicate
	}
	if cfg.Quorum <= 0 || cfg.Quorum > len(specs) {
		cfg.Quorum = len(specs)
	}
	if cfg.EpochTimeout <= 0 {
		cfg.EpochTimeout = 2 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 250 * time.Millisecond
	}
	if cfg.Retry == (openflow.RetryPolicy{}) {
		cfg.Retry = openflow.RetryPolicy{
			Base: 2 * time.Millisecond, Max: 100 * time.Millisecond,
			Multiplier: 2, Jitter: 0.25, MaxRetries: 4, Seed: cfg.Seed,
		}
	}
	placed, err := Place(src, len(specs), cfg.Mode)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:   cfg,
		mode:  cfg.Mode,
		start: uint8(src.Start),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i, spec := range specs {
		retry := cfg.Retry
		retry.Seed = cfg.Seed + int64(i)*7919 // decorrelate member jitter
		client, err := openflow.NewClient(nil,
			openflow.WithDialer(spec.Dial),
			openflow.WithRPCTimeout(cfg.RPCTimeout),
			openflow.WithRetryPolicy(retry),
		)
		if err != nil {
			for _, m := range f.members {
				m.client.Close()
			}
			return nil, fmt.Errorf("fabric: connect %s: %w", spec.Name, err)
		}
		f.members = append(f.members, &Member{
			Name:    spec.Name,
			client:  client,
			desired: placed[i],
		})
	}
	return f, nil
}

// Close tears down every member's control channel.
func (f *Fabric) Close() error {
	var first error
	for _, m := range f.members {
		if err := m.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Members returns the fabric's members in placement order.
func (f *Fabric) Members() []*Member { return f.members }

// Epoch reports the last epoch issued; CommittedEpoch the last that
// reached quorum. They differ while the fabric is degraded.
func (f *Fabric) Epoch() uint64 { return f.epoch.Load() }

// CommittedEpoch reports the last epoch that reached quorum.
func (f *Fabric) CommittedEpoch() uint64 { return f.committed.Load() }

// Frozen reports whether the fabric is degraded to its read-only frozen
// epoch.
func (f *Fabric) Frozen() bool { return f.frozen.Load() }

// Desired returns a copy of the fabric's desired pipeline for member i —
// the state a resync drives the switch back to.
func (f *Fabric) Desired(i int) *mat.Pipeline {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[i].desired.Clone()
}

// Apply pushes one batch of flow-mods as a single epoch: the mods are
// pre-validated against the desired state, routed per the placement,
// delivered to every routed member concurrently and committed when a
// quorum of barriers acknowledges. Lagging members are first given one
// bounded chance to resync (the automatic reconnect path). Returns the
// epoch number; on quorum loss the fabric freezes and the error unwraps
// to ErrFrozen.
func (f *Fabric) Apply(ctx context.Context, mods []openflow.FlowMod) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resyncLaggingLocked(ctx)
	return f.applyLocked(ctx, [][]openflow.FlowMod{mods}, false)
}

// ApplyConcurrent pushes several independently-planned batches that are
// intended to run concurrently. A commutation pre-check flags every
// non-commuting batch pair — the fast syntactic test first, escalated to
// the semantic confluence verifier when Config.SemanticCommute is set;
// conflicting batches are serialized into separate epochs (in argument
// order) while pairwise-commuting batches share an epoch and are
// delivered to each member in an independently seeded interleaving —
// exercising the order-independence the pre-check promised. Returns the
// epochs issued and the number of conflicting pairs.
func (f *Fabric) ApplyConcurrent(ctx context.Context, batches [][]openflow.FlowMod) ([]uint64, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resyncLaggingLocked(ctx)
	waves, conflicts := planWaves(batches, f.commutePredicateLocked(batches))
	f.conflicts.Add(int64(conflicts))
	var epochs []uint64
	for _, wave := range waves {
		group := make([][]openflow.FlowMod, 0, len(wave))
		for _, bi := range wave {
			group = append(group, batches[bi])
		}
		f.waves.Add(1)
		seq, err := f.applyLocked(ctx, group, len(group) > 1)
		if seq != 0 {
			epochs = append(epochs, seq)
		}
		if err != nil {
			return epochs, conflicts, err
		}
	}
	return epochs, conflicts, nil
}

// commutePredicateLocked builds the pairwise batch-commutation predicate
// planWaves consults: the syntactic test is the fast path, and — when the
// semantic oracle is armed — a syntactic conflict is escalated to the
// confluence verifier against the fabric's current logical desired state.
// The oracle refutes the conflict only on a fully clean verdict (every
// interleaving confluent AND every mod applied — applyLocked rejects
// whole epochs on any mod failure, so a rejection-dependent confluence
// proof would not transfer); each refutation increments falseConflicts.
func (f *Fabric) commutePredicateLocked(batches [][]openflow.FlowMod) func(i, j int) bool {
	return func(i, j int) bool {
		if syntacticCommute(batches[i], batches[j]) {
			return true
		}
		if !f.cfg.SemanticCommute {
			return false
		}
		base, err := f.logicalDesiredLocked()
		if err != nil {
			return false
		}
		opts := f.cfg.ConfluenceOpts
		if opts.Seed == 0 {
			opts.Seed = f.cfg.Seed
		}
		v, err := confluence.Check(base, [][]openflow.FlowMod{batches[i], batches[j]}, opts)
		if err != nil || !v.Confluent || len(v.Rejections) > 0 {
			return false
		}
		f.falseConflicts.Add(1)
		return true
	}
}

// logicalDesiredLocked reconstructs the logical single-switch program the
// fabric currently intends: any replica's desired state under
// replication, the union of the shards' under partitioning. Batches are
// planned (and semantically judged) against the logical program, exactly
// as CheckConvergence fingerprints it.
func (f *Fabric) logicalDesiredLocked() (*mat.Pipeline, error) {
	if f.mode == Partition {
		desireds := make([]*mat.Pipeline, len(f.members))
		for i, m := range f.members {
			desireds[i] = m.desired
		}
		return unionPipeline(desireds)
	}
	return f.members[0].desired.Clone(), nil
}

// applyLocked issues one epoch carrying the given batches. When shuffle
// is set each member receives the batches in its own seeded order
// (batch-internal order is always preserved — a plan's delete must
// precede its add).
func (f *Fabric) applyLocked(ctx context.Context, batches [][]openflow.FlowMod, shuffle bool) (uint64, error) {
	if f.frozen.Load() {
		return 0, ErrFrozen
	}
	seq := f.epoch.Load() + 1

	// Route every batch, preserving batch identity for the interleaving.
	n := len(f.members)
	perMember := make([][][]openflow.FlowMod, n) // [member][batch][]mod
	for mi := range perMember {
		perMember[mi] = make([][]openflow.FlowMod, len(batches))
	}
	for bi, batch := range batches {
		routed := route(batch, f.mode, f.start, n)
		for mi := range routed {
			perMember[mi][bi] = routed[mi]
		}
	}

	// Pre-validate against the desired state: a batch that cannot apply
	// cleanly is rejected before anything reaches a wire.
	next := make([]*mat.Pipeline, n)
	for mi, m := range f.members {
		p := m.desired.Clone()
		for bi := range perMember[mi] {
			for i := range perMember[mi][bi] {
				if err := openflow.ApplyToPipeline(p, &perMember[mi][bi][i]); err != nil {
					return 0, fmt.Errorf("fabric: epoch %d rejected on %s: %w", seq, m.Name, err)
				}
			}
		}
		next[mi] = p
	}
	for mi, m := range f.members {
		m.desired = next[mi]
	}
	f.epoch.Store(seq)

	// Per-member delivery order: an independent seeded permutation of the
	// batches when shuffling, identity otherwise.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for mi, m := range f.members {
		order := make([]int, len(batches))
		for i := range order {
			order[i] = i
		}
		if shuffle {
			f.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var mods []openflow.FlowMod
		for _, bi := range order {
			mods = append(mods, perMember[mi][bi]...)
		}
		wg.Add(1)
		go func(mi int, m *Member, mods []openflow.FlowMod) {
			defer wg.Done()
			errs[mi] = f.deliver(ctx, m, mods, seq)
		}(mi, m, mods)
	}
	wg.Wait()

	acked := 0
	var failed []string
	for mi, m := range f.members {
		if errs[mi] == nil {
			acked++
		} else {
			m.lagging.Store(true)
			m.epochFails.Add(1)
			failed = append(failed, m.Name)
		}
	}
	if acked >= f.cfg.Quorum {
		f.committed.Store(seq)
		f.epochsCommitted.Add(1)
		return seq, nil
	}
	f.frozen.Store(true)
	f.freezes.Add(1)
	f.epochsDegraded.Add(1)
	sort.Strings(failed)
	return seq, &QuorumError{Epoch: seq, Acked: acked, Quorum: f.cfg.Quorum, Failed: failed}
}

// deliver pushes one member's share of an epoch and waits on its barrier,
// all bounded by the epoch timeout. A member with no mods acknowledges
// trivially. Mods that fail to deliver stay in the client's resend queue
// and reach the switch exactly once on reconnect.
func (f *Fabric) deliver(ctx context.Context, m *Member, mods []openflow.FlowMod, seq uint64) error {
	if len(mods) == 0 && !m.lagging.Load() {
		m.acked.Store(seq)
		return nil
	}
	dctx, cancel := context.WithTimeout(ctx, f.cfg.EpochTimeout)
	defer cancel()
	for i := range mods {
		if err := m.client.SendFlowMod(dctx, &mods[i]); err != nil {
			return err
		}
	}
	if err := m.client.Barrier(dctx); err != nil {
		return err
	}
	m.acked.Store(seq)
	m.lagging.Store(false)
	return nil
}

// Reconcile resynchronizes every lagging member (full state transfer:
// flush the resend queue, dump the switch, diff against desired, repair)
// and unfreezes the fabric if quorum is restored. It is the explicit
// recovery entry point; Apply also attempts it opportunistically with a
// cheap liveness probe first.
func (f *Fabric) Reconcile(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var firstErr error
	for _, m := range f.members {
		if !m.lagging.Load() {
			continue
		}
		if err := f.resyncMemberLocked(ctx, m); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fabric: reconcile %s: %w", m.Name, err)
		}
	}
	f.maybeUnfreezeLocked()
	return firstErr
}

// resyncLaggingLocked gives each lagging member one bounded chance to
// resync, gated by a cheap echo probe so unreachable members cost one
// RPC timeout, not a full epoch timeout.
func (f *Fabric) resyncLaggingLocked(ctx context.Context) {
	for _, m := range f.members {
		if !m.lagging.Load() {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, f.cfg.RPCTimeout)
		err := m.client.Echo(pctx, []byte("fabric-probe"))
		cancel()
		if err != nil {
			continue // still unreachable
		}
		_ = f.resyncMemberLocked(ctx, m)
	}
	f.maybeUnfreezeLocked()
}

// resyncMemberLocked performs the full state transfer for one member:
// flush the client's resend queue (exactly-once redelivery of everything
// queued during the outage), pull the switch's installed pipeline, diff
// it against the desired state, and push the repair under a barrier.
func (f *Fabric) resyncMemberLocked(ctx context.Context, m *Member) error {
	rctx, cancel := context.WithTimeout(ctx, f.cfg.EpochTimeout)
	defer cancel()
	if err := m.client.Barrier(rctx); err != nil {
		// A switch-side rejection of a stale queued mod is survivable:
		// the dump-and-diff below repairs whatever state resulted.
		var se *openflow.SwitchError
		if !errors.As(err, &se) {
			return err
		}
	}
	got, err := m.client.DumpFlows(rctx)
	if err != nil {
		return err
	}
	mods, err := diffMods(got, m.desired)
	if err != nil {
		return err
	}
	for i := range mods {
		if err := m.client.SendFlowMod(rctx, &mods[i]); err != nil {
			return err
		}
	}
	if len(mods) > 0 {
		if err := m.client.Barrier(rctx); err != nil {
			return err
		}
	}
	m.acked.Store(f.epoch.Load())
	m.lagging.Store(false)
	m.resyncs.Add(1)
	return nil
}

// maybeUnfreezeLocked lifts the frozen epoch once quorum is healthy
// again; the epochs issued while degraded become committed (their state
// is durable on a quorum by construction of the resync).
func (f *Fabric) maybeUnfreezeLocked() {
	if !f.frozen.Load() {
		return
	}
	healthy := 0
	for _, m := range f.members {
		if !m.lagging.Load() {
			healthy++
		}
	}
	if healthy >= f.cfg.Quorum {
		f.frozen.Store(false)
		f.committed.Store(f.epoch.Load())
	}
}

// EpochLag reports how far the slowest member trails the issued epoch.
func (f *Fabric) EpochLag() uint64 {
	cur := f.epoch.Load()
	var lag uint64
	for _, m := range f.members {
		if d := cur - m.acked.Load(); d > lag {
			lag = d
		}
	}
	return lag
}

// diffMods computes the flow-mods that transform the actual pipeline into
// the desired one: per stage, entries keyed by canonical match — extra
// keys are deleted, missing keys added, and keys whose actions differ are
// modified.
func diffMods(actual, desired *mat.Pipeline) ([]openflow.FlowMod, error) {
	if len(actual.Stages) != len(desired.Stages) {
		return nil, fmt.Errorf("fabric: dump has %d stages, desired %d", len(actual.Stages), len(desired.Stages))
	}
	var out []openflow.FlowMod
	for si := range desired.Stages {
		at, dt := actual.Stages[si].Table, desired.Stages[si].Table
		have := make(map[string]mat.Entry, len(at.Entries))
		for _, e := range at.Entries {
			have[entryMatchKey(at, e)] = e
		}
		for _, e := range dt.Entries {
			key := entryMatchKey(dt, e)
			got, ok := have[key]
			if ok {
				delete(have, key)
				if entryRowKey(dt, e) == entryRowKey(at, got) {
					continue
				}
				out = append(out, entryToMod(openflow.FlowModify, uint8(si), dt, e))
				continue
			}
			out = append(out, entryToMod(openflow.FlowAdd, uint8(si), dt, e))
		}
		for _, e := range have {
			mod := entryToMod(openflow.FlowDelete, uint8(si), at, e)
			mod.Actions = nil
			out = append(out, mod)
		}
	}
	return out, nil
}

// entryToMod renders a table entry as a flow-mod against its stage.
func entryToMod(cmd openflow.FlowModCommand, table uint8, t *mat.Table, e mat.Entry) openflow.FlowMod {
	f := openflow.FlowMod{Command: cmd, TableID: table}
	for _, i := range t.Schema.Fields() {
		f.Match = append(f.Match, openflow.MatchField{
			Name: t.Schema[i].Name, Width: t.Schema[i].Width, Cell: e[i],
		})
	}
	for _, i := range t.Schema.Actions() {
		f.Actions = append(f.Actions, openflow.ActionField{
			Name: t.Schema[i].Name, Width: t.Schema[i].Width, Value: e[i].Bits,
		})
	}
	return f
}

// entryRowKey renders a full row (match and actions) canonically.
func entryRowKey(t *mat.Table, e mat.Entry) string {
	key := entryMatchKey(t, e)
	for _, i := range t.Schema.Actions() {
		key += fmt.Sprintf(";%s=%d", t.Schema[i].Name, e[i].Bits)
	}
	return key
}

// RegisterTelemetry exposes the fabric's live protocol state on the
// registry: epoch progress, degradation and resync counters at the top
// level, and per-member sub-registries ("sw0", "sw1", …) carrying each
// control channel's resilience gauges plus the member's epoch position.
func (f *Fabric) RegisterTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("epoch", func() float64 { return float64(f.epoch.Load()) })
	reg.GaugeFunc("committed_epoch", func() float64 { return float64(f.committed.Load()) })
	reg.GaugeFunc("epoch_lag", func() float64 { return float64(f.EpochLag()) })
	reg.GaugeFunc("frozen", func() float64 {
		if f.frozen.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("lagging_members", func() float64 {
		n := 0
		for _, m := range f.members {
			if m.lagging.Load() {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("resyncs", func() float64 {
		var n int64
		for _, m := range f.members {
			n += m.resyncs.Load()
		}
		return float64(n)
	})
	reg.GaugeFunc("commute.false_conflicts", func() float64 { return float64(f.falseConflicts.Load()) })
	reg.GaugeFunc("commute.false_conflict_rate", func() float64 {
		fc := float64(f.falseConflicts.Load())
		total := fc + float64(f.conflicts.Load())
		if total == 0 {
			return 0
		}
		return fc / total
	})
	for _, m := range f.members {
		sub := telemetry.NewRegistry()
		m.client.RegisterTelemetry(sub)
		mm := m
		sub.GaugeFunc("acked_epoch", func() float64 { return float64(mm.acked.Load()) })
		sub.GaugeFunc("member_resyncs", func() float64 { return float64(mm.resyncs.Load()) })
		sub.GaugeFunc("epoch_fails", func() float64 { return float64(mm.epochFails.Load()) })
		reg.Register(m.Name, sub)
	}
}

// Stats reports the fabric's protocol counters (telemetry.Provider).
func (f *Fabric) Stats() telemetry.Snapshot {
	snap := telemetry.Snapshot{
		Name: "fabric",
		Counters: map[string]uint64{
			"epochs_committed":        uint64(f.epochsCommitted.Load()),
			"epochs_degraded":         uint64(f.epochsDegraded.Load()),
			"freezes":                 uint64(f.freezes.Load()),
			"commute_conflicts":       uint64(f.conflicts.Load()),
			"commute_false_conflicts": uint64(f.falseConflicts.Load()),
			"waves":                   uint64(f.waves.Load()),
		},
		Gauges: map[string]float64{
			"epoch":           float64(f.epoch.Load()),
			"committed_epoch": float64(f.committed.Load()),
			"epoch_lag":       float64(f.EpochLag()),
		},
		Providers: map[string]telemetry.Snapshot{},
	}
	for _, m := range f.members {
		ms := m.client.Stats()
		ms.Name = m.Name
		if ms.Gauges == nil {
			ms.Gauges = map[string]float64{}
		}
		ms.Gauges["acked_epoch"] = float64(m.acked.Load())
		ms.Gauges["member_resyncs"] = float64(m.resyncs.Load())
		snap.Providers[m.Name] = ms
	}
	return snap
}
