package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"manorm/internal/confluence"
	"manorm/internal/controlplane"
	"manorm/internal/faultconn"
	"manorm/internal/openflow"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/usecases"
)

// FaultSpec selects the channel faults for one churn-under-faults run.
// All randomness derives from Seed, so a fixed spec reproduces the same
// drop/cut schedule and therefore the same retry/resend/reconnect
// counters.
type FaultSpec struct {
	// Loss is the probability that a controller→switch frame is silently
	// dropped.
	Loss float64
	// Latency delays every delivered frame; Jitter adds a uniform draw
	// from [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
	// Cut forces one mid-churn disconnect (the client reconnects and
	// resynchronizes through its resend queue).
	Cut  bool
	Seed int64
	// RPCTimeout is the client's per-attempt deadline; it bounds how long
	// a dropped barrier request stalls the run. Defaults to 250ms.
	RPCTimeout time.Duration
}

func (fs FaultSpec) String() string {
	s := fmt.Sprintf("loss=%.1f%% jitter=%s", fs.Loss*100, fs.Jitter)
	if fs.Cut {
		s += " +cut"
	}
	return s
}

// FaultChurnRow is the outcome of one (representation, fault spec) churn
// run: the client's resilience counters and whether the switch converged
// to exactly the fault-free state.
type FaultChurnRow struct {
	Rep     usecases.Representation
	Spec    FaultSpec
	Updates int

	// Client is the control channel's telemetry snapshot (counters
	// mods_sent, mods_resent, retries, timeouts, reconnects; histogram
	// rpc_latency_ns).
	Client telemetry.Snapshot
	// DupsSkipped counts resends the agent absorbed by xid dedup;
	// Sessions counts control sessions (1 + reconnects).
	DupsSkipped int64
	Sessions    int64

	WallMs float64
	// StateOK reports that the final switch state equals the fault-free
	// run's — i.e. zero flow-mods were lost despite the faults.
	StateOK bool
}

// DefaultFaultGrid is the published sweep: loss {0, 0.5, 2}% crossed with
// jitter {0, 25ms}, plus the headline scenario — 1% loss, 25ms jitter and
// one forced mid-churn disconnect.
func DefaultFaultGrid() []FaultSpec {
	var specs []FaultSpec
	for _, jitter := range []time.Duration{0, 25 * time.Millisecond} {
		for _, loss := range []float64{0, 0.005, 0.02} {
			specs = append(specs, FaultSpec{Loss: loss, Jitter: jitter, Seed: 1})
		}
	}
	specs = append(specs, FaultSpec{Loss: 0.01, Jitter: 25 * time.Millisecond, Cut: true, Seed: 1})
	return specs
}

// FaultChurn sweeps the service-update burst over the fault grid for the
// universal and normalized (goto) representations.
func FaultChurn(cfg Config, updates int, specs []FaultSpec) ([]*FaultChurnRow, error) {
	var out []*FaultChurnRow
	for _, rep := range []usecases.Representation{usecases.RepUniversal, usecases.RepGoto} {
		for _, fs := range specs {
			row, err := FaultChurnOne(cfg, rep, updates, fs)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", rep, fs, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// runFaultChurn is the registry entry: 24 updates over the published grid,
// gated on exactly-once delivery — every run must end in the fault-free
// run's state.
func runFaultChurn(w io.Writer, cfg Config) error {
	rows, err := FaultChurn(cfg, 24, DefaultFaultGrid())
	if err != nil {
		return err
	}
	RenderFaultChurn(w, rows)
	for _, r := range rows {
		if !r.StateOK {
			return fmt.Errorf("switch state diverged from the fault-free run (%s, %s)", r.Rep, r.Spec)
		}
	}
	return nil
}

// FaultChurnOne runs the update burst twice — once over a clean pipe to
// obtain the reference state, once over a fault-injected TCP channel —
// and compares the final switch states.
func FaultChurnOne(cfg Config, rep usecases.Representation, updates int, fs FaultSpec) (*FaultChurnRow, error) {
	if fs.RPCTimeout <= 0 {
		fs.RPCTimeout = 250 * time.Millisecond
	}
	refState, refFrames, err := faultFreeReference(cfg, rep, updates)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
	p, err := g.Build(rep)
	if err != nil {
		return nil, err
	}
	agent, err := openflow.NewAgent(switches.NewESwitch(), p)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		// Serve sessions sequentially: after a cut the client redials and
		// the next accept picks the fresh transport up.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = agent.Serve(context.Background(), c)
		}
	}()

	// The fault schedule is keyed off the dial count so every connection
	// (initial and post-cut) has a reproducible schedule; only the first
	// carries the forced cut, placed mid-burst using the fault-free frame
	// count.
	dials := 0
	dialer := func() (net.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		fc := faultconn.Config{
			Seed:         fs.Seed + int64(dials)*1009,
			DropRate:     fs.Loss,
			Latency:      fs.Latency,
			Jitter:       fs.Jitter,
			MaxReadChunk: 9,
		}
		if fs.Cut && dials == 0 {
			fc.CutAfterWrites = refFrames / 2
			if fc.CutAfterWrites < 2 {
				fc.CutAfterWrites = 2
			}
			fc.CutMidFrame = true
		}
		dials++
		return faultconn.Wrap(raw, fc), nil
	}

	client, err := openflow.NewClient(nil,
		openflow.WithDialer(dialer),
		openflow.WithRPCTimeout(fs.RPCTimeout),
		openflow.WithRetryPolicy(openflow.RetryPolicy{
			Base: 2 * time.Millisecond, Max: 100 * time.Millisecond,
			Multiplier: 2, Jitter: 0.25, MaxRetries: 8, Seed: fs.Seed,
		}),
	)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	ctx := context.Background()
	ctl := &controlplane.Controller{Client: client, Rep: rep, Config: g}
	start := time.Now()
	if err := runChurn(ctx, ctl, g, updates); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	gotState, err := confluence.CanonicalState(agent.Pipeline())
	if err != nil {
		return nil, err
	}
	return &FaultChurnRow{
		Rep:         rep,
		Spec:        fs,
		Updates:     updates,
		Client:      client.Stats(),
		DupsSkipped: atomic.LoadInt64(&agent.DupsSkipped),
		Sessions:    atomic.LoadInt64(&agent.Sessions),
		WallMs:      float64(wall.Microseconds()) / 1000,
		StateOK:     gotState == refState,
	}, nil
}

// runChurn performs the standard update burst: each update moves one
// service (round-robin) to a fresh port and commits with a barrier.
func runChurn(ctx context.Context, ctl *controlplane.Controller, g *usecases.GwLB, updates int) error {
	for i := 0; i < updates; i++ {
		svc := i % len(g.Services)
		if _, err := ctl.ChangeServicePort(ctx, svc, uint16(20000+i)); err != nil {
			return err
		}
	}
	return nil
}

// faultFreeReference runs the identical burst over a clean in-process
// pipe and returns the canonical final state plus the number of frames
// the client wrote (used to place the forced cut mid-burst).
func faultFreeReference(cfg Config, rep usecases.Representation, updates int) (string, int, error) {
	g := usecases.Generate(cfg.Services, cfg.Backends, cfg.Seed)
	p, err := g.Build(rep)
	if err != nil {
		return "", 0, err
	}
	agent, err := openflow.NewAgent(switches.NewESwitch(), p)
	if err != nil {
		return "", 0, err
	}
	a, b := net.Pipe()
	go agent.Serve(context.Background(), a) //nolint:errcheck — ends with the pipe
	client, err := openflow.NewClient(b)
	if err != nil {
		return "", 0, err
	}
	defer client.Close()
	ctl := &controlplane.Controller{Client: client, Rep: rep, Config: g}
	if err := runChurn(context.Background(), ctl, g, updates); err != nil {
		return "", 0, err
	}
	state, err := confluence.CanonicalState(agent.Pipeline())
	if err != nil {
		return "", 0, err
	}
	m := client.Stats()
	// Frames written: hello reply + every flow-mod + one barrier per
	// update.
	frames := 1 + int(m.Counters["mods_sent"]) + updates
	return state, frames, nil
}

// RenderFaultChurn prints the churn-under-faults comparison.
func RenderFaultChurn(w io.Writer, rows []*FaultChurnRow) {
	fmt.Fprintln(w, "E2c: service-update burst under control-channel faults (ESwitch agent, TCP)")
	fmt.Fprintf(w, "%-11s %-27s %-9s %-8s %-8s %-8s %-6s %-6s %-8s\n",
		"rep", "faults", "flow-mods", "resent", "retries", "timeouts", "reconn", "dups", "state")
	for _, r := range rows {
		state := "OK"
		if !r.StateOK {
			state = "DIVERGED"
		}
		fmt.Fprintf(w, "%-11s %-27s %-9d %-8d %-8d %-8d %-6d %-6d %-8s\n",
			r.Rep, r.Spec, r.Client.Counters["mods_sent"], r.Client.Counters["mods_resent"],
			r.Client.Counters["retries"], r.Client.Counters["timeouts"],
			r.Client.Counters["reconnects"], r.DupsSkipped, state)
	}
}
