package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"manorm/internal/confluence"
	"manorm/internal/controlplane"
	"manorm/internal/faultconn"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// testHarness is one fabric over real TCP with agent-backed switches and
// an optional fault-injected network.
type testHarness struct {
	f      *Fabric
	g      *usecases.GwLB
	src    *mat.Pipeline
	agents []*openflow.Agent
	net    *faultconn.Net
}

type harnessOpts struct {
	members int
	mode    PlacementMode
	quorum  int
	// loss is the ctl→switch silent frame-drop probability.
	loss float64
	// cutMember, when >= 0, forces one mid-frame cut on that member's
	// first connection after cutAfter frames.
	cutMember int
	cutAfter  int
	seed      int64
	// semantic arms the confluence verifier as the second opinion on the
	// syntactic commutation pre-check.
	semantic bool
}

func memberName(i int) string { return fmt.Sprintf("sw%d", i) }

// newHarness provisions n agents with the placement of a gwlb goto
// pipeline, serves them over TCP through fault-injected channels in both
// directions, and connects a fabric.
func newHarness(t *testing.T, o harnessOpts) *testHarness {
	t.Helper()
	if o.seed == 0 {
		o.seed = 1
	}
	if o.mode == "" {
		o.mode = Replicate
	}
	g := usecases.Generate(3, 3, o.seed)
	src, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := Place(src, o.members, o.mode)
	if err != nil {
		t.Fatal(err)
	}
	nf := faultconn.NewNet(o.seed)

	h := &testHarness{g: g, src: src, net: nf}
	specs := make([]MemberSpec, o.members)
	for i := 0; i < o.members; i++ {
		agent, err := openflow.NewAgent(switches.NewESwitch(), placed[i])
		if err != nil {
			t.Fatal(err)
		}
		h.agents = append(h.agents, agent)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		name := memberName(i)
		go func() {
			// Sequential sessions: after a cut the client redials and the
			// next accept picks up the fresh transport. The agent side is
			// fault-wrapped too so the switch→controller direction obeys
			// the same partition map.
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				fc := faultconn.Wrap(c, faultconn.Config{
					Seed: o.seed + 13, Net: nf, From: name, To: "ctl",
				})
				_ = agent.Serve(context.Background(), fc)
			}
		}()

		addr := ln.Addr().String()
		idx := i
		dials := 0
		specs[i] = MemberSpec{Name: name, Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := faultconn.Config{
				Seed:     o.seed + int64(idx)*101 + int64(dials)*1009,
				DropRate: o.loss,
				Net:      nf, From: "ctl", To: name,
			}
			if idx == o.cutMember && dials == 0 && o.cutAfter > 0 {
				fc.CutAfterWrites = o.cutAfter
				fc.CutMidFrame = true
			}
			dials++
			return faultconn.Wrap(raw, fc), nil
		}}
	}

	f, err := New(src, specs, Config{
		Mode:         o.mode,
		Quorum:       o.quorum,
		EpochTimeout: 2 * time.Second,
		RPCTimeout:   60 * time.Millisecond,
		Retry: openflow.RetryPolicy{
			Base: time.Millisecond, Max: 20 * time.Millisecond,
			Multiplier: 2, Jitter: 0.25, MaxRetries: 3, Seed: o.seed,
		},
		Seed:            o.seed,
		SemanticCommute: o.semantic,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	h.f = f
	return h
}

// plan builds the port-change plan for svc and records the new port in
// the harness's service config (so subsequent plans see current state).
func (h *testHarness) plan(t *testing.T, svc int, port uint16) []openflow.FlowMod {
	t.Helper()
	p, err := controlplane.PlanPortChange(h.g, usecases.RepGoto, svc, port)
	if err != nil {
		t.Fatal(err)
	}
	h.g.Services[svc].Port = port
	return p.Mods
}

// oracle returns the single-switch reference: the source pipeline with
// every mod in mods applied fault-free.
func oracle(t *testing.T, src *mat.Pipeline, mods []openflow.FlowMod) *mat.Pipeline {
	t.Helper()
	p := src.Clone()
	for i := range mods {
		if err := openflow.ApplyToPipeline(p, &mods[i]); err != nil {
			t.Fatalf("oracle apply mod %d: %v", i, err)
		}
	}
	return p
}

func mustCanonical(t *testing.T, p *mat.Pipeline) string {
	t.Helper()
	s, err := confluence.CanonicalState(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplicateApplyReachesAllMembers(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 3})
	ctx := context.Background()

	mods := h.plan(t, 0, 8080)
	seq, err := h.f.Apply(ctx, mods)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if seq != 1 || h.f.CommittedEpoch() != 1 {
		t.Fatalf("epoch = %d, committed = %d, want 1, 1", seq, h.f.CommittedEpoch())
	}
	want := mustCanonical(t, oracle(t, h.src, mods))
	for i, a := range h.agents {
		if got := mustCanonical(t, a.Pipeline()); got != want {
			t.Errorf("member %d state diverged from oracle", i)
		}
		if got := mustCanonical(t, h.f.Desired(i)); got != want {
			t.Errorf("member %d desired state diverged from oracle", i)
		}
	}
	if lag := h.f.EpochLag(); lag != 0 {
		t.Errorf("epoch lag = %d after clean commit", lag)
	}
}

func TestPartitionRoutesToOwners(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 3, mode: Partition})
	ctx := context.Background()

	// The shards cover the entry stage exactly: entry counts sum to the
	// source's and every later stage is fully replicated.
	srcEntries := len(h.src.Stages[h.src.Start].Table.Entries)
	sum := 0
	for i := range h.agents {
		d := h.f.Desired(i)
		sum += len(d.Stages[d.Start].Table.Entries)
		for si := range d.Stages {
			if si == d.Start {
				continue
			}
			if got, want := len(d.Stages[si].Table.Entries), len(h.src.Stages[si].Table.Entries); got != want {
				t.Fatalf("member %d stage %d: %d entries, want %d (replicated)", i, si, got, want)
			}
		}
	}
	if sum != srcEntries {
		t.Fatalf("shard entry counts sum to %d, want %d", sum, srcEntries)
	}

	mods := h.plan(t, 1, 9443)
	if _, err := h.f.Apply(ctx, mods); err != nil {
		t.Fatalf("apply: %v", err)
	}
	pkts := trafficgen.GwLB(h.g, 128, 0.9, 7).Packets()
	rep, err := h.f.CheckConvergence(ctx, oracle(t, h.src, mods), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("partition fabric did not converge: %s\n%s", rep, rep.Witness)
	}
}

func TestQuorumLossFreezesAndReconcileHeals(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 3}) // quorum = all 3
	ctx := context.Background()

	// Black-hole sw2 in both directions and push an epoch: it must
	// degrade, freeze the fabric and report the failed member.
	h.net.Split([]string{"ctl", "sw0", "sw1"}, []string{"sw2"})
	mods1 := h.plan(t, 0, 8080)
	if _, err := h.f.Apply(ctx, mods1); !errors.Is(err, ErrFrozen) {
		t.Fatalf("apply under quorum loss: err = %v, want QuorumError (ErrFrozen)", err)
	}
	// While frozen, writes are rejected outright — no fresh epoch, no
	// QuorumError, and the desired state is untouched.
	rejected, err := controlplane.PlanPortChange(h.g, usecases.RepGoto, 1, 8081)
	if err != nil {
		t.Fatal(err)
	}
	var qe *QuorumError
	if _, err := h.f.Apply(ctx, rejected.Mods); !errors.Is(err, ErrFrozen) {
		t.Fatalf("apply while frozen: err = %v, want ErrFrozen", err)
	} else if errors.As(err, &qe) {
		t.Fatal("second apply produced a fresh QuorumError; want bare frozen rejection")
	}
	if !h.f.Frozen() {
		t.Fatal("fabric not frozen after quorum loss")
	}
	if h.f.CommittedEpoch() != 0 {
		t.Fatalf("committed epoch = %d while degraded, want 0", h.f.CommittedEpoch())
	}

	// Heal the partition: reconcile resynchronizes sw2 (resend-queue
	// flush plus dump-and-diff) and unfreezes.
	h.net.Heal()
	if err := h.f.Reconcile(ctx); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if h.f.Frozen() {
		t.Fatal("fabric still frozen after reconcile")
	}
	m2 := h.f.Members()[2]
	if m2.Lagging() || m2.Resyncs() == 0 {
		t.Fatalf("sw2 lagging=%v resyncs=%d after reconcile", m2.Lagging(), m2.Resyncs())
	}

	// Writes work again and the fabric converges to the oracle that saw
	// the frozen-epoch mods exactly once.
	mods3 := h.plan(t, 2, 8082)
	if _, err := h.f.Apply(ctx, mods3); err != nil {
		t.Fatalf("apply after heal: %v", err)
	}
	pkts := trafficgen.GwLB(h.g, 128, 0.9, 11).Packets()
	rep, err := h.f.CheckConvergence(ctx, oracleFromServices(t, h), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fabric did not converge after heal: %s\n%s", rep, rep.Witness)
	}
}

// oracleFromServices rebuilds the reference pipeline from the harness's
// current service configuration — the state a fault-free single switch
// would hold after all applied intents.
func oracleFromServices(t *testing.T, h *testHarness) *mat.Pipeline {
	t.Helper()
	p, err := h.g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFabricChurnUnderPartitionedChurn is the headline robustness run:
// seeded frame loss, one forced mid-frame cut and repeated single-member
// partitions during a port-change churn, with quorum 2 of 3 so the
// fabric keeps committing while the victim lags. After healing, every
// member must hold the oracle's fingerprint, exact desired state, and
// forward packet-for-packet like the fault-free oracle.
func TestFabricChurnUnderPartitionedChurn(t *testing.T) {
	h := newHarness(t, harnessOpts{
		members: 3, quorum: 2,
		loss:      0.01,
		cutMember: 0, cutAfter: 25,
		seed: 42,
	})
	ctx := context.Background()

	const updates = 9
	vrng := rand.New(rand.NewSource(43))
	for i := 0; i < updates; i++ {
		severed := ""
		if i%3 == 1 {
			// Partition a seeded victim's control link for this epoch —
			// alternately a full two-way split and the asymmetric fault
			// where the switch's replies vanish but the controller's
			// flow-mods still arrive (xid dedup absorbs the redelivery).
			severed = memberName(vrng.Intn(3))
			if i%2 == 0 {
				h.net.SeverDirection(severed, "ctl")
			} else {
				h.net.Split([]string{"ctl"}, []string{severed})
			}
		}
		mods := h.plan(t, i%len(h.g.Services), uint16(20000+i))
		if _, err := h.f.Apply(ctx, mods); err != nil {
			t.Fatalf("update %d (severed %q): %v", i, severed, err)
		}
		if severed != "" {
			h.net.Heal()
		}
	}
	if err := h.f.Reconcile(ctx); err != nil {
		t.Fatalf("final reconcile: %v", err)
	}

	pkts := trafficgen.GwLB(h.g, 256, 0.9, 5).Packets()
	rep, err := h.f.CheckConvergence(ctx, oracleFromServices(t, h), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fabric did not converge: %s\n%s", rep, rep.Witness)
	}
	for _, mr := range rep.Members {
		if mr.Fingerprint != rep.Oracle {
			t.Errorf("%s fingerprint %s != oracle %s", mr.Name, mr.Fingerprint, rep.Oracle)
		}
	}

	// The faults actually happened: the cut forced a reconnect on sw0 and
	// the partitions forced at least one resync.
	if rc := h.f.Members()[0].Client().Stats().Counters["reconnects"]; rc == 0 {
		t.Error("forced cut produced no reconnect")
	}
	var resyncs int64
	for _, m := range h.f.Members() {
		resyncs += m.Resyncs()
	}
	if resyncs == 0 {
		t.Error("partitioned churn produced no resyncs")
	}
	if h.net.Drops() == 0 {
		t.Error("partition blackholed no frames")
	}
}

func TestApplyConcurrentCommutingSharesOneEpoch(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 2})
	ctx := context.Background()

	// Three independently-planned updates on three distinct services:
	// pairwise commuting, so one epoch carries all three with per-member
	// interleaving.
	batches := [][]openflow.FlowMod{
		h.plan(t, 0, 7000),
		h.plan(t, 1, 7001),
		h.plan(t, 2, 7002),
	}
	epochs, conflicts, err := h.f.ApplyConcurrent(ctx, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || conflicts != 0 {
		t.Fatalf("epochs = %v, conflicts = %d; want one epoch, zero conflicts", epochs, conflicts)
	}
	rep, err := h.f.CheckConvergence(ctx, oracleFromServices(t, h), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("commuting concurrent batches diverged: %s", rep)
	}
}

func TestApplyConcurrentSerializesConflicts(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 2})
	ctx := context.Background()

	// An add and a delete of the same (table, match) pair do not commute:
	// the pre-check must flag them and serialize into two epochs, in
	// argument order, leaving the state unchanged.
	match := []openflow.MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.Exact(0x0A000001, 32)},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(7777, 16)},
	}
	add := openflow.FlowMod{Command: openflow.FlowAdd, TableID: 0, Match: match,
		Actions: []openflow.ActionField{{Name: mat.GotoAttr, Width: 16, Value: 1}}}
	del := openflow.FlowMod{Command: openflow.FlowDelete, TableID: 0, Match: match}

	epochs, conflicts, err := h.f.ApplyConcurrent(ctx, [][]openflow.FlowMod{{add}, {del}})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || conflicts != 1 {
		t.Fatalf("epochs = %v, conflicts = %d; want two epochs, one conflict", epochs, conflicts)
	}
	want := mustCanonical(t, h.src)
	for i, a := range h.agents {
		if got := mustCanonical(t, a.Pipeline()); got != want {
			t.Errorf("member %d state changed by add+delete round trip", i)
		}
	}
}

// falseConflictBatches builds the canonical false-conflict pair on the
// harness pipeline: a port change on service 0 (delete exact + add exact)
// racing a wildcard-port catch-all add on the same VIP. The delete and
// the catch-all overlap under distinct keys, so the syntactic pre-check
// conservatively flags them — but every interleaving applies cleanly and
// fingerprints identically, so the semantic oracle refutes the conflict.
func falseConflictBatches(t *testing.T, h *testHarness, port uint16) [][]openflow.FlowMod {
	t.Helper()
	ca, err := controlplane.PlanCatchAll(h.g, usecases.RepGoto, 0)
	if err != nil {
		t.Fatal(err)
	}
	return [][]openflow.FlowMod{h.plan(t, 0, port), ca.Mods}
}

func TestApplyConcurrentSemanticOracleRefutesFalseConflict(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 2, semantic: true})
	ctx := context.Background()

	batches := falseConflictBatches(t, h, 7100)
	epochs, conflicts, err := h.f.ApplyConcurrent(ctx, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || conflicts != 0 {
		t.Fatalf("epochs = %v, conflicts = %d; want the refuted pair to share one conflict-free epoch", epochs, conflicts)
	}
	snap := h.f.Stats()
	if snap.Counters["commute_false_conflicts"] != 1 {
		t.Fatalf("commute_false_conflicts = %d, want 1", snap.Counters["commute_false_conflicts"])
	}
	if snap.Counters["commute_conflicts"] != 0 {
		t.Fatalf("commute_conflicts = %d, want 0 (the only conflict was refuted)", snap.Counters["commute_conflicts"])
	}

	want := oracle(t, h.src, append(append([]openflow.FlowMod{}, batches[0]...), batches[1]...))
	rep, err := h.f.CheckConvergence(ctx, want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("refuted-conflict epoch diverged: %s", rep)
	}

	reg := telemetry.NewRegistry()
	h.f.RegisterTelemetry(reg)
	top := reg.Snapshot()
	if top.Gauges["commute.false_conflicts"] != 1 {
		t.Errorf("commute.false_conflicts gauge = %v, want 1", top.Gauges["commute.false_conflicts"])
	}
	if top.Gauges["commute.false_conflict_rate"] != 1 {
		t.Errorf("commute.false_conflict_rate gauge = %v, want 1", top.Gauges["commute.false_conflict_rate"])
	}
}

func TestApplyConcurrentSyntacticOnlySerializesFalseConflict(t *testing.T) {
	// Control run: without the semantic oracle the same pair is
	// conservatively serialized into two epochs and counted as a conflict.
	h := newHarness(t, harnessOpts{members: 2})
	ctx := context.Background()

	epochs, conflicts, err := h.f.ApplyConcurrent(ctx, falseConflictBatches(t, h, 7100))
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || conflicts != 1 {
		t.Fatalf("epochs = %v, conflicts = %d; want two epochs, one conflict", epochs, conflicts)
	}
	if fc := h.f.Stats().Counters["commute_false_conflicts"]; fc != 0 {
		t.Fatalf("commute_false_conflicts = %d without the oracle, want 0", fc)
	}
}

// TestConfluenceVerifierConcurrentWithChurn drives the confluence
// verifier from several goroutines against snapshots of the fabric's
// desired state while the fabric itself churns port changes (with the
// semantic oracle armed, so the verifier also runs inside the epoch
// path). Run under -race this pins the verifier's freedom from shared
// mutable state.
func TestConfluenceVerifierConcurrentWithChurn(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 2, semantic: true})
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := h.f.Desired(0)
				match := []openflow.MatchField{
					{Name: "ip_dst", Width: 32, Cell: mat.Exact(uint64(0x0B000000+w*256+i%8), 32)},
					{Name: "tcp_dst", Width: 16, Cell: mat.Exact(uint64(8000+w), 16)},
				}
				add := openflow.FlowMod{Command: openflow.FlowAdd, TableID: 0, Match: match,
					Actions: []openflow.ActionField{{Name: mat.GotoAttr, Width: 16, Value: 1}}}
				del := openflow.FlowMod{Command: openflow.FlowDelete, TableID: 0, Match: match}
				v, err := confluence.Check(base, [][]openflow.FlowMod{{add}, {del}}, confluence.Options{Seed: int64(w + 1), Compensation: true})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if v.Confluent {
					t.Errorf("worker %d: add/delete race of one key judged confluent", w)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 6; round++ {
		port := uint16(9100 + round)
		svc := round % len(h.g.Services)
		if _, err := h.f.Apply(ctx, h.plan(t, svc, port)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := h.f.ApplyConcurrent(ctx, falseConflictBatches(t, h, 9900)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	rep, err := h.f.CheckConvergence(ctx, h.f.Desired(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fabric diverged under concurrent verification: %s", rep)
	}
}

func TestFabricTelemetry(t *testing.T) {
	h := newHarness(t, harnessOpts{members: 2})
	ctx := context.Background()
	if _, err := h.f.Apply(ctx, h.plan(t, 0, 6000)); err != nil {
		t.Fatal(err)
	}

	snap := h.f.Stats()
	if snap.Counters["epochs_committed"] != 1 {
		t.Errorf("epochs_committed = %d, want 1", snap.Counters["epochs_committed"])
	}
	if _, ok := snap.Providers["sw0"]; !ok {
		t.Error("per-member snapshot missing")
	}

	reg := telemetry.NewRegistry()
	h.f.RegisterTelemetry(reg)
	top := reg.Snapshot()
	for _, g := range []string{"epoch", "committed_epoch", "epoch_lag", "frozen", "lagging_members", "resyncs"} {
		if _, ok := top.Gauges[g]; !ok {
			t.Errorf("gauge %s not registered", g)
		}
	}
	sub, ok := top.Providers["sw1"]
	if !ok {
		t.Fatal("member sub-registry missing")
	}
	for _, g := range []string{"resend_queue_depth", "reconnects", "backoff_attempts", "acked_epoch"} {
		if _, ok := sub.Gauges[g]; !ok {
			t.Errorf("member gauge %s not registered", g)
		}
	}
	if got := top.Gauges["epoch"]; got != 1 {
		t.Errorf("epoch gauge = %v, want 1", got)
	}
}
