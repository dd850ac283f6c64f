package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"manorm/internal/controlplane"
	"manorm/internal/fabric"
	"manorm/internal/faultconn"
	"manorm/internal/openflow"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// FabricSpec selects one fabric-churn run: a quorum-committing fabric of
// Members agent-backed switches driven through a seeded fault schedule.
// All randomness derives from Seed, so a fixed spec reproduces the same
// partition/cut/loss schedule.
type FabricSpec struct {
	// Members and Quorum size the fabric; Quorum 0 means all members.
	Members int
	Quorum  int
	// Mode places the pipeline: every rule everywhere (replicate) or
	// entry-stage rules sharded by match key (partition).
	Mode fabric.PlacementMode
	// Loss is the per-frame probability that a controller→switch frame is
	// silently dropped.
	Loss float64
	// Cut forces one mid-frame disconnect on member 0's first connection.
	Cut bool
	// PartitionEvery severs a seeded victim's control link for every k-th
	// update (healed after the epoch); 0 disables partitions. The severed
	// direction alternates between a full split and the asymmetric fault
	// where only the switch's replies vanish.
	PartitionEvery int
	Seed           int64
}

func (fs FabricSpec) String() string {
	s := fmt.Sprintf("%s %d/%d loss=%.1f%%", fs.Mode, fs.quorum(), fs.Members, fs.Loss*100)
	if fs.Cut {
		s += " +cut"
	}
	if fs.PartitionEvery > 0 {
		s += fmt.Sprintf(" +part/%d", fs.PartitionEvery)
	}
	return s
}

func (fs FabricSpec) quorum() int {
	if fs.Quorum <= 0 {
		return fs.Members
	}
	return fs.Quorum
}

// FabricChurnRow is the outcome of one fabric-churn run: the epoch
// protocol's commit/degrade/resync counters, the aggregated client
// resilience counters, and the convergence verdict.
type FabricChurnRow struct {
	Spec    FabricSpec
	Updates int

	// Epochs issued and committed; an epoch that missed quorum is issued
	// but only committed once reconciliation restores quorum.
	Epochs    uint64
	Committed uint64
	// Degraded counts epochs that missed quorum; Freezes counts the
	// resulting read-only transitions; Resyncs counts full dump-and-diff
	// state transfers.
	Degraded int64
	Freezes  int64
	Resyncs  int64
	// Conflicts counts non-commuting concurrent flow-mod pairs flagged by
	// the commutation pre-check; FalseConflicts counts syntactic conflicts
	// the semantic confluence oracle refuted (the pairs ran in one epoch
	// after all).
	Conflicts      int64
	FalseConflicts int64
	// Aggregated openflow client counters across all members.
	Reconnects int64
	ModsResent int64
	Retries    int64
	// NetDrops counts frames black-holed by the partition map.
	NetDrops int64
	// MaxLag is the largest observed gap between the issued epoch and the
	// slowest member's acknowledged epoch.
	MaxLag uint64

	Report *fabric.Report
	// Telemetry carries the fabric's metrics registry snapshot (epoch lag,
	// per-member resyncs and divergence gauges) when cfg.Telemetry is set.
	Telemetry *telemetry.Snapshot
	WallMs    float64
}

// DefaultFabricGrid is the published sweep: the headline fault schedule —
// 1% frame loss, one forced mid-frame cut, a partition on every third
// update, quorum n-1 — under both placement modes.
func DefaultFabricGrid(members int) []FabricSpec {
	var specs []FabricSpec
	for _, mode := range []fabric.PlacementMode{fabric.Replicate, fabric.Partition} {
		specs = append(specs, FabricSpec{
			Members: members, Quorum: members - 1, Mode: mode,
			Loss: 0.01, Cut: true, PartitionEvery: 3, Seed: 42,
		})
	}
	return specs
}

// FabricChurn runs the update burst over the fabric fault grid.
func FabricChurn(cfg Config, updates int, specs []FabricSpec) ([]*FabricChurnRow, error) {
	var out []*FabricChurnRow
	for _, fs := range specs {
		row, err := FabricChurnOne(cfg, updates, fs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fs, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// runFabricChurn is the registry entry: 12 updates over the published grid
// on cfg.Fabric members, gated on the convergence checker's verdict.
func runFabricChurn(w io.Writer, cfg Config) error {
	rows, err := FabricChurn(cfg, 12, DefaultFabricGrid(cfg.Fabric))
	if err != nil {
		return err
	}
	RenderFabricChurn(w, rows)
	for _, r := range rows {
		if !r.Report.OK() {
			return fmt.Errorf("fabric did not converge (%s): %s\n%s", r.Spec, r.Report, r.Report.Witness)
		}
	}
	return nil
}

// FabricChurnOne drives one fabric of agent-backed switches over TCP
// through a seeded schedule of partitions, an optional mid-frame cut and
// frame loss while churning service ports, then heals everything,
// reconciles, and proves (or refutes) convergence: identical normal
// forms on every replica (or the shard union), exact desired state —
// zero lost or duplicated flow-mods — and packet-for-packet forwarding
// agreement with a fault-free single-switch oracle.
func FabricChurnOne(cfg Config, updates int, fs FabricSpec) (*FabricChurnRow, error) {
	if fs.Members < 2 {
		return nil, fmt.Errorf("fabric churn needs >= 2 members, got %d", fs.Members)
	}
	g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
	src, err := g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	placed, err := fabric.Place(src, fs.Members, fs.Mode)
	if err != nil {
		return nil, err
	}
	nf := faultconn.NewNet(fs.Seed)

	specs := make([]fabric.MemberSpec, fs.Members)
	listeners := make([]net.Listener, fs.Members)
	for i := 0; i < fs.Members; i++ {
		agent, err := openflow.NewAgent(switches.NewESwitch(), placed[i])
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		name := fmt.Sprintf("sw%d", i)
		go func() {
			// Sequential sessions: after a cut the client redials and the
			// next accept picks up the fresh transport. The agent side is
			// fault-wrapped too, so switch→controller replies obey the same
			// partition map.
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				fc := faultconn.Wrap(c, faultconn.Config{
					Seed: fs.Seed + 13, Net: nf, From: name, To: "ctl",
				})
				_ = agent.Serve(context.Background(), fc)
			}
		}()

		addr := ln.Addr().String()
		idx := i
		dials := 0
		specs[i] = fabric.MemberSpec{Name: name, Dial: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := faultconn.Config{
				Seed:     fs.Seed + int64(idx)*101 + int64(dials)*1009,
				DropRate: fs.Loss,
				Net:      nf, From: "ctl", To: name,
			}
			if fs.Cut && idx == 0 && dials == 0 {
				fc.CutAfterWrites = 25
				fc.CutMidFrame = true
			}
			dials++
			return faultconn.Wrap(raw, fc), nil
		}}
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()

	f, err := fabric.New(src, specs, fabric.Config{
		Mode:         fs.Mode,
		Quorum:       fs.Quorum,
		EpochTimeout: 2 * time.Second,
		RPCTimeout:   60 * time.Millisecond,
		Retry: openflow.RetryPolicy{
			Base: time.Millisecond, Max: 20 * time.Millisecond,
			Multiplier: 2, Jitter: 0.25, MaxRetries: 3, Seed: fs.Seed,
		},
		Seed:            fs.Seed,
		SemanticCommute: true,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var reg *telemetry.Registry
	if cfg.Telemetry {
		reg = telemetry.NewRegistry()
		f.RegisterTelemetry(reg)
	}

	ctx := context.Background()
	row := &FabricChurnRow{Spec: fs, Updates: updates}
	vrng := rand.New(rand.NewSource(fs.Seed + 7))
	start := time.Now()
	for i := 0; i < updates; i++ {
		severed := ""
		if fs.PartitionEvery > 0 && i%fs.PartitionEvery == 1 {
			severed = fmt.Sprintf("sw%d", vrng.Intn(fs.Members))
			if i%2 == 0 {
				nf.SeverDirection(severed, "ctl")
			} else {
				nf.Split([]string{"ctl"}, []string{severed})
			}
		}
		svc := i % len(g.Services)
		port := uint16(20000 + i)
		plan, err := controlplane.PlanPortChange(g, usecases.RepGoto, svc, port)
		if err != nil {
			return nil, err
		}
		g.Services[svc].Port = port
		_, applyErr := f.Apply(ctx, plan.Mods)
		if lag := f.EpochLag(); lag > row.MaxLag {
			row.MaxLag = lag
		}
		if severed != "" {
			nf.Heal()
		}
		if applyErr != nil {
			var qe *fabric.QuorumError
			if !errors.As(applyErr, &qe) {
				return nil, fmt.Errorf("update %d: %v", i, applyErr)
			}
			// The epoch was issued but missed quorum and froze the fabric;
			// the partition is healed, so reconciliation resynchronizes the
			// failed members, commits the epoch and unfreezes.
			if err := f.Reconcile(ctx); err != nil {
				return nil, fmt.Errorf("update %d reconcile: %v", i, err)
			}
			if f.Frozen() {
				return nil, fmt.Errorf("update %d: fabric still frozen after heal+reconcile", i)
			}
		}
	}

	// One concurrent round: two independently-planned updates on distinct
	// services, checked for commutation and (being disjoint) delivered in
	// a single epoch with per-member interleaving.
	if len(g.Services) >= 2 {
		var batches [][]openflow.FlowMod
		for k := 0; k < 2; k++ {
			svc := (updates + k) % len(g.Services)
			port := uint16(21000 + k)
			plan, err := controlplane.PlanPortChange(g, usecases.RepGoto, svc, port)
			if err != nil {
				return nil, err
			}
			g.Services[svc].Port = port
			batches = append(batches, plan.Mods)
		}
		if _, _, err := f.ApplyConcurrent(ctx, batches); err != nil {
			return nil, fmt.Errorf("concurrent round: %v", err)
		}
	}

	// One false-conflict round: a port change on service 0 raced with a
	// wildcard-port catch-all for the same VIP. The catch-all's match
	// overlaps the exact-port rows, so the syntactic pre-check flags a
	// conflict — but the rows differ in specificity and most-specific-wins
	// keeps every ordering semantically identical, so the confluence
	// oracle refutes it and the pair still commits in a single epoch.
	{
		port := uint16(22000)
		plan, err := controlplane.PlanPortChange(g, usecases.RepGoto, 0, port)
		if err != nil {
			return nil, err
		}
		g.Services[0].Port = port
		catch, err := controlplane.PlanCatchAll(g, usecases.RepGoto, 0)
		if err != nil {
			return nil, err
		}
		if _, _, err := f.ApplyConcurrent(ctx, [][]openflow.FlowMod{plan.Mods, catch.Mods}); err != nil {
			return nil, fmt.Errorf("false-conflict round: %v", err)
		}
		// Retract the catch-all rows so the fault-free oracle below — built
		// from the service graph alone — stays the exact desired state.
		var drop []openflow.FlowMod
		for _, m := range catch.Mods {
			d := m
			d.Command = openflow.FlowDelete
			d.Actions = nil
			drop = append(drop, d)
		}
		if _, err := f.Apply(ctx, drop); err != nil {
			return nil, fmt.Errorf("false-conflict cleanup: %v", err)
		}
	}

	if err := f.Reconcile(ctx); err != nil {
		return nil, fmt.Errorf("final reconcile: %v", err)
	}
	row.WallMs = float64(time.Since(start).Microseconds()) / 1000

	// The oracle is the pipeline a fault-free single switch would hold
	// after every applied intent; the fabric must match it packet for
	// packet on a fresh traffic sample.
	oracle, err := g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	pkts := trafficgen.GwLB(g, 256, 0.9, fs.Seed+5).Packets()
	rep, err := f.CheckConvergence(ctx, oracle, pkts)
	if err != nil {
		return nil, err
	}
	row.Report = rep

	snap := f.Stats()
	row.Epochs = f.Epoch()
	row.Committed = f.CommittedEpoch()
	row.Degraded = int64(snap.Counters["epochs_degraded"])
	row.Freezes = int64(snap.Counters["freezes"])
	row.Conflicts = int64(snap.Counters["commute_conflicts"])
	row.FalseConflicts = int64(snap.Counters["commute_false_conflicts"])
	for _, m := range f.Members() {
		row.Resyncs += m.Resyncs()
		cm := m.Client().Stats()
		row.Reconnects += int64(cm.Counters["reconnects"])
		row.ModsResent += int64(cm.Counters["mods_resent"])
		row.Retries += int64(cm.Counters["retries"])
	}
	row.NetDrops = nf.Drops()

	if reg != nil {
		// Per-switch divergence gauges: 1 when the member's dumped state
		// (or, under replication, its fingerprint) disagrees
		// with the fabric's view.
		conv := telemetry.NewRegistry()
		for _, mr := range rep.Members {
			div := 0.0
			if !mr.StateOK || (fs.Mode == fabric.Replicate && mr.Fingerprint != rep.Oracle) {
				div = 1
			}
			conv.Gauge(mr.Name + "_divergence").Set(div)
		}
		conv.Gauge("packets_diverged").Set(float64(rep.Divergences))
		reg.Register("convergence", conv)
		s := reg.Snapshot()
		row.Telemetry = &s
	}
	return row, nil
}

// RenderFabricChurn prints the fabric-churn verdicts.
func RenderFabricChurn(w io.Writer, rows []*FabricChurnRow) {
	fmt.Fprintln(w, "E9: multi-switch fabric churn under partitions, cuts and loss (ESwitch agents, TCP)")
	fmt.Fprintf(w, "%-37s %-4s %-7s %-7s %-5s %-7s %-7s %-7s %-6s %-7s %-6s %-10s\n",
		"faults", "upd", "epochs", "commit", "degr", "resync", "reconn", "resent", "drops", "maxlag", "falsec", "verdict")
	for _, r := range rows {
		verdict := "CONVERGED"
		if !r.Report.OK() {
			verdict = fmt.Sprintf("DIVERGED(%d)", r.Report.Divergences)
		}
		fmt.Fprintf(w, "%-37s %-4d %-7d %-7d %-5d %-7d %-7d %-7d %-6d %-7d %-6d %-10s\n",
			r.Spec, r.Updates, r.Epochs, r.Committed, r.Degraded, r.Resyncs,
			r.Reconnects, r.ModsResent, r.NetDrops, r.MaxLag, r.FalseConflicts, verdict)
	}
}
