package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"manorm/internal/confluence"
	"manorm/internal/controlplane"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// loopbackNote is stated in every results file: control traffic crossed
// the host's loopback interface, no real link.
const loopbackNote = "control channel: one client, one TCP connection over the host's loopback interface (127.0.0.1); no real link is crossed"

// p99MinSamples is the number of latency samples a p99 needs.
const p99MinSamples = 100 * minTailSamples

// churnFrames is how many frames are forwarded through the churned switch
// to check its forwarding against the relational reference.
const churnFrames = 4096

// countingConn counts the bytes the controller writes to the switch.
type countingConn struct {
	net.Conn
	tx *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// intent is one executed port change, kept so the phase can be replayed
// locally afterwards.
type intent struct {
	svc  int
	port uint16
}

// channel is one controller driving one agent-fronted ESwitch over a TCP
// connection on loopback, closed loop: the controller waits for the
// barrier ack before its next intent.
type channel struct {
	rep    usecases.Representation
	size   size
	seed   int64
	sw     *switches.ESwitch
	agent  *openflow.Agent
	client *openflow.Client
	ctl    *controlplane.Controller
	ln     net.Listener
	served chan error
	tx     atomic.Int64

	history []intent
	next    int
}

// openChannel builds the configuration, installs it behind an agent, and
// connects a controller to it.
func openChannel(sz size, rep usecases.Representation, seed int64) (*channel, error) {
	c := &channel{rep: rep, size: sz, seed: seed, sw: switches.NewESwitch(), served: make(chan error, 1)}
	g, p, err := startProgram(sz, rep, seed)
	if err != nil {
		return nil, err
	}
	if c.agent, err = openflow.NewAgent(c.sw, p); err != nil {
		return nil, err
	}
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		conn, err := c.ln.Accept()
		if err != nil {
			c.served <- err
			return
		}
		err = c.agent.Serve(context.Background(), conn)
		conn.Close()
		c.served <- err
	}()
	raw, err := net.Dial("tcp", c.ln.Addr().String())
	if err != nil {
		c.ln.Close()
		<-c.served
		return nil, err
	}
	if c.client, err = openflow.NewClient(&countingConn{Conn: raw, tx: &c.tx}); err != nil {
		raw.Close()
		c.ln.Close()
		<-c.served
		return nil, err
	}
	c.ctl = &controlplane.Controller{Client: c.client, Rep: rep, Config: g}
	return c, nil
}

// close tears the channel down and waits for the agent's goroutine.
func (c *channel) close() error {
	cerr := c.client.Close()
	c.ln.Close()
	err := <-c.served
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return cerr
	}
	return err
}

// nextIntent picks the next port change: round-robin over the services,
// each to a port no service has used before.
func (c *channel) nextIntent() intent {
	it := intent{svc: c.next % c.size.Services, port: uint16(20000 + c.next%40000)}
	c.next++
	return it
}

// change executes one intent end to end (plan → flow-mods → barrier ack).
func (c *channel) change(ctx context.Context) error {
	it := c.nextIntent()
	if _, err := c.ctl.ChangeServicePort(ctx, it.svc, it.port); err != nil {
		return err
	}
	c.history = append(c.history, it)
	return nil
}

// churnCell is the closed-loop intent cell of one channel: completed
// intents per second, one slice per round, and every intent's latency in
// milliseconds (kept for the traced pass's percentiles).
type churnCell struct {
	ch     *channel
	budget time.Duration
	// minSamples, when set, keeps the last round going until that many
	// latencies exist, so a percentile can be reported; the extra intents do
	// not enter the rate.
	minSamples int
	rate       cell
	ms         []float64
	err        error
}

// placementLuck is the share of an intent cell's slices set aside as lucky
// (see steady).
const placementLuck = 0.25

func (c *churnCell) step() int {
	if c.err != nil {
		return 1
	}
	t0 := time.Now()
	c.err = c.ch.change(context.Background())
	c.ms = append(c.ms, float64(time.Since(t0).Nanoseconds())/1e6)
	return 1
}

func (c *churnCell) sample(r, n int) error {
	if r == 0 {
		c.step() // warm-up intent: first use of the connection and the planner
		c.ms = c.ms[:0]
	}
	rate, intents := rateSlice(c.budget/time.Duration(n), 1, c.step)
	c.rate.add(rate, intents)
	for r == n-1 && len(c.ms) < c.minSamples && c.err == nil {
		c.step()
	}
	return c.err
}

// churn runs a churn cell on its own, all slices back to back, and returns
// every intent's latency in milliseconds: the form the traced pass uses.
func (c *channel) churn(d time.Duration, minSamples int) ([]float64, error) {
	cc := &churnCell{ch: c, budget: d, minSamples: minSamples}
	for r := 0; r < tracedSlices; r++ {
		if err := cc.sample(r, tracedSlices); err != nil {
			return nil, err
		}
	}
	return cc.ms, nil
}

// verify checks the state the phase left behind: the agent's pipeline must
// equal a local replay of the same plans through openflow.ApplyToPipeline,
// and frames forwarded through the churned switch must match the
// relational reference of that state.
func (c *channel) verify(t *tally) error {
	twinCfg, twin, err := startProgram(c.size, c.rep, c.seed)
	if err != nil {
		return err
	}
	for _, it := range c.history {
		plan, err := controlplane.PlanPortChange(twinCfg, c.rep, it.svc, it.port)
		if err != nil {
			return err
		}
		for i := range plan.Mods {
			if err := openflow.ApplyToPipeline(twin, &plan.Mods[i]); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		twinCfg.Services[it.svc].Port = it.port
	}
	want, err := confluence.CanonicalState(twin)
	if err != nil {
		return err
	}
	got, err := confluence.CanonicalState(c.agent.Pipeline())
	if err != nil {
		return err
	}
	t.check(got == want, "churn %s: agent pipeline differs from the local replay of %d intents", c.rep, len(c.history))

	universal, err := twinCfg.Universal()
	if err != nil {
		return err
	}
	frames, _ := trafficgen.Wire(trafficgen.GwLB(twinCfg, churnFrames, 0.9, c.seed+5))
	idx := sampleIndices(len(frames), 0, 0)
	ref, err := referenceVerdicts(universal, packet.DefaultDecoder(), frames, idx)
	if err != nil {
		return err
	}
	out := make([]dataplane.Verdict, len(frames))
	if err := c.sw.NewWorker().ProcessBatch(frames, out); err != nil {
		return err
	}
	checkVerdicts(fmt.Sprintf("churned switch (%s)", c.rep), idx, ref, out, t)
	return nil
}

// modsPerIntent is the exact flow-mod count of one port-change plan.
func modsPerIntent(sz size, rep usecases.Representation, seed int64) (int, error) {
	plan, err := controlplane.PlanPortChange(gateway(sz, seed), rep, 0, 20000)
	if err != nil {
		return 0, err
	}
	return len(plan.Mods), nil
}

// updatePhase holds the two channels of the update phase: the goto
// (normalized) representation and the universal one. Opening them is part
// of set-up.
type updatePhase struct {
	gotoCh, universalCh *channel
	gotoC, universalC   *churnCell
}

func newUpdatePhase(sz size, seed int64) (*updatePhase, error) {
	g, err := openChannel(sz, usecases.RepGoto, seed)
	if err != nil {
		return nil, err
	}
	u, err := openChannel(sz, usecases.RepUniversal, seed)
	if err != nil {
		g.close()
		return nil, err
	}
	return &updatePhase{
		gotoCh: g, universalCh: u,
		gotoC:      &churnCell{ch: g, rate: cell{Name: "update_goto_per_s", Unit: "intents/s", Skip: placementLuck}},
		universalC: &churnCell{ch: u, rate: cell{Name: "update_universal_per_s", Unit: "intents/s", Skip: placementLuck}},
	}, nil
}

func (p *updatePhase) close() error {
	return errors.Join(p.gotoCh.close(), p.universalCh.close())
}

// cells returns the goto and the universal intent cells.
func (p *updatePhase) cells(b budget) []sampler {
	p.gotoC.budget, p.universalC.budget = b.updateGoto, b.updateUniv
	return []sampler{p.gotoC, p.universalC}
}

// finish records the cells and checks the state each channel was left in.
func (p *updatePhase) finish(rec *recorder) error {
	rec.cell(p.gotoC.rate)
	rec.cell(p.universalC.rate)
	for _, c := range []*channel{p.gotoCh, p.universalCh} {
		if err := c.verify(&rec.tally); err != nil {
			return fmt.Errorf("update %s phase check: %w", c.rep, err)
		}
	}
	return nil
}

// startProgram builds the configuration and program a channel starts
// from; the same call yields the twin a phase is replayed on.
func startProgram(sz size, rep usecases.Representation, seed int64) (*usecases.GwLB, *mat.Pipeline, error) {
	g := gateway(sz, seed)
	p, err := g.Build(rep)
	return g, p, err
}
