package openflow_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"manorm/internal/controlplane"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// crossColumn is the smallest table that admits ambiguity: (10.0/16, *)
// and (*, 80) overlap at equal specificity on packets to 10.0.x.x:80.
func crossColumn() *mat.Table {
	t := mat.New("T", mat.Schema{mat.F("ip_dst", 32), mat.F("tcp_dst", 16), mat.A("out", 16)})
	t.Add(mat.IPv4Prefix("10.0.0.0", 16), mat.Any(), mat.Exact(1, 16))
	return t
}

func addPort80(out uint64) *openflow.FlowMod {
	return &openflow.FlowMod{Command: openflow.FlowAdd, TableID: 0,
		Match:   []openflow.MatchField{{Name: "tcp_dst", Width: 16, Cell: mat.Exact(80, 16)}},
		Actions: []openflow.ActionField{{Name: "out", Width: 16, Value: out}},
	}
}

// TestNewAgentVetsInitialPipeline: an ambiguous start program used to
// install cleanly and then fail every later barrier; it is refused up
// front, with the commit's typed error.
func TestNewAgentVetsInitialPipeline(t *testing.T) {
	tab := crossColumn()
	tab.Add(mat.Any(), mat.Exact(80, 16), mat.Exact(2, 16))
	sw := switches.NewESwitch()
	_, err := openflow.NewAgent(sw, mat.SingleTable(tab))
	var oe *openflow.OpError
	if !errors.As(err, &oe) || oe.Op != "commit" || oe.Table != 0 {
		t.Fatalf("ambiguous start program: got %v, want a commit openflow.OpError on table 0", err)
	}
	if _, perr := sw.ProcessFrame(packet.TCP4(1, 2, 3, 0x0A000001, 4, 80).Marshal(nil)); perr == nil {
		t.Errorf("the refused program was installed anyway")
	}
	bad := mat.SingleTable(crossColumn())
	bad.Stages[0].Next = 7
	if _, err := openflow.NewAgent(switches.NewESwitch(), bad); !errors.As(err, &oe) || oe.Op != "commit" {
		t.Errorf("invalid start program: got %v, want a commit openflow.OpError", err)
	}
}

// TestRejectedCommitStaysRejected: a rejected barrier leaves the offending
// row in the logical pipeline, so the barrier behind a later batch that
// has nothing to do with it must reject again — the touched-row set is
// dropped only by a commit that succeeds. Deleting the row heals it.
func TestRejectedCommitStaysRejected(t *testing.T) {
	other := mat.New("U", mat.Schema{mat.F("ip_src", 32), mat.A("out", 16)})
	p := &mat.Pipeline{Name: "two", Stages: []mat.Stage{
		{Table: crossColumn(), Next: 1, MissDrop: false},
		{Table: other, Next: -1, MissDrop: true},
	}}
	sw := switches.NewESwitch()
	agent, err := openflow.NewAgent(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.ApplyFlowMod(addPort80(2)); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err == nil {
		t.Fatalf("ambiguous batch committed")
	}
	unrelated := &openflow.FlowMod{Command: openflow.FlowAdd, TableID: 1,
		Match:   []openflow.MatchField{{Name: "ip_src", Width: 32, Cell: mat.IPv4("1.1.1.1")}},
		Actions: []openflow.ActionField{{Name: "out", Width: 16, Value: 7}},
	}
	if err := agent.ApplyFlowMod(unrelated); err != nil {
		t.Fatal(err)
	}
	var oe *openflow.OpError
	if err := agent.Commit(); !errors.As(err, &oe) || oe.Table != 0 {
		t.Fatalf("barrier behind the rejected batch: got %v, want table 0 rejected again", err)
	}
	frame := packet.TCP4(1, 2, 0x01010101, 0x0B000001, 4, 443).Marshal(nil)
	if v, err := sw.ProcessFrame(frame); err != nil || !v.Drop {
		t.Fatalf("a rejected barrier reached the switch: %+v, %v", v, err)
	}
	// A delete ahead of the offending row shifts it down a slot; the agent
	// must keep track of it.
	first := &openflow.FlowMod{Command: openflow.FlowDelete, TableID: 0,
		Match: []openflow.MatchField{{Name: "ip_dst", Width: 32, Cell: mat.IPv4Prefix("10.0.0.0", 16)}}}
	if err := agent.ApplyFlowMod(first); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err != nil {
		t.Fatalf("the overlap is gone, yet: %v", err)
	}
	if v, err := sw.ProcessFrame(frame); err != nil || v.Drop || v.Port != 7 {
		t.Fatalf("the healed barrier did not deliver the unrelated batch: %+v, %v", v, err)
	}
	// The row that is now committed is checked against later adds.
	if err := agent.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, TableID: 0,
		Match:   []openflow.MatchField{{Name: "ip_dst", Width: 32, Cell: mat.IPv4Prefix("10.0.0.0", 16)}},
		Actions: []openflow.ActionField{{Name: "out", Width: 16, Value: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err == nil {
		t.Fatalf("an added row overlapping a committed one was accepted")
	}
}

// recordingSwitch notes which entry point a commit takes.
type recordingSwitch struct {
	switches.Switch
	installs int
	updates  [][]int
}

func (s *recordingSwitch) Install(p *mat.Pipeline) error {
	s.installs++
	return s.Switch.Install(p)
}

func (s *recordingSwitch) Update(p *mat.Pipeline, dirty []int) error {
	s.updates = append(s.updates, append([]int(nil), dirty...))
	return s.Switch.Update(p, dirty)
}

// TestCommitHandsTheSwitchTheDirtyStages: a barrier is an Update of exactly
// the stages its batch touched, never a reinstall.
func TestCommitHandsTheSwitchTheDirtyStages(t *testing.T) {
	p, err := usecases.Fig1().Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	sw := &recordingSwitch{Switch: switches.NewESwitch()}
	agent, err := openflow.NewAgent(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	split := func(table uint8, bits uint64, out uint64) *openflow.FlowMod {
		return &openflow.FlowMod{Command: openflow.FlowAdd, TableID: table,
			Match:   []openflow.MatchField{{Name: "ip_src", Width: 32, Cell: mat.Prefix(bits, 1, 32)}},
			Actions: []openflow.ActionField{{Name: "out", Width: 16, Value: out}},
		}
	}
	for _, f := range []*openflow.FlowMod{split(3, 0x80000000, 9), split(3, 0, 8)} {
		if err := agent.ApplyFlowMod(f); err != nil {
			t.Fatal(err)
		}
	}
	// A delete marks its stage dirty too.
	if err := agent.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowDelete, TableID: 0, Match: []openflow.MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.2")},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(443, 16)},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second commit has nothing to do
		if err := agent.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if sw.installs != 1 || !reflect.DeepEqual(sw.updates, [][]int{{0, 3}}) {
		t.Fatalf("installs %d, updates %v; want the initial install and one update of stages [0 3]", sw.installs, sw.updates)
	}
}

// TestStatsSurviveCommitToAnotherTable: every barrier used to zero every
// table's flow-stats, because each reinstall allocated fresh counters. A
// table the batch did not touch keeps its counts; the recompiled table's
// restart (see switches.Switch.Counters).
func TestStatsSurviveCommitToAnotherTable(t *testing.T) {
	p, err := usecases.Fig1().Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	sw := switches.NewESwitch()
	agent, err := openflow.NewAgent(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.ApplyFlowMod(&openflow.FlowMod{Command: openflow.FlowModify, TableID: 3,
		Match:   []openflow.MatchField{{Name: "ip_src", Width: 32, Cell: mat.Any()}},
		Actions: []openflow.ActionField{{Name: "out", Width: 16, Value: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err != nil {
		t.Fatal(err)
	}
	for table, want := range map[int][]uint64{0: {7, 0, 0}, 1: {7, 0}} {
		st, err := agent.ReadStats(table)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Counts, want) {
			t.Errorf("table %d counts after a commit to table 3: %v, want %v", table, st.Counts, want)
		}
	}
}

// movePort pushes the planner's port-change intent for service svc into
// the agent, flow-mod by flow-mod, and commits it.
func movePort(agent *openflow.Agent, g *usecases.GwLB, rep usecases.Representation, svc int, port uint16) error {
	plan, err := controlplane.PlanPortChange(g, rep, svc, port)
	if err != nil {
		return err
	}
	for i := range plan.Mods {
		if err := agent.ApplyFlowMod(&plan.Mods[i]); err != nil {
			return err
		}
	}
	g.Services[svc].Port = port
	return agent.Commit()
}

// TestForwardDuringCommits forwards on dedicated workers while barriers
// swap in snapshots that share their clean tables with the ones the
// workers are on. Service 0 flaps between two ports; every other service
// must forward exactly as the reference says throughout, and because the
// load-balancer stages are never dirty their shared counters must have
// counted every packet once. Run under -race (-count=10 in `make race`)
// this is the concurrency contract of the copy-on-write swap.
func TestForwardDuringCommits(t *testing.T) {
	g := usecases.Generate(6, 4, 3)
	frames, _ := trafficgen.Wire(trafficgen.GwLB(g, 256, 1.0, 5))
	ref, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Compile(ref, dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]dataplane.Verdict, len(frames))
	if err := dp.ProcessFrames(frames, dataplane.NewFrameBatch(nil), want, nil); err != nil {
		t.Fatal(err)
	}
	flapping := make([]bool, len(frames)) // frames of the service that moves
	var pkt packet.Packet
	for i, f := range frames {
		if err := pkt.ParseInto(f); err != nil {
			t.Fatal(err)
		}
		flapping[i] = pkt.IPDst == g.Services[0].VIP
	}

	const workers, passes = 3, 20
	for _, model := range switches.ModelNames() {
		t.Run(model, func(t *testing.T) {
			sw, err := switches.New(model)
			if err != nil {
				t.Fatal(err)
			}
			cfg := usecases.Generate(6, 4, 3) // g again: the planner moves its ports
			p, err := cfg.Build(usecases.RepGoto)
			if err != nil {
				t.Fatal(err)
			}
			agent, err := openflow.NewAgent(sw, p)
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, workers)
			forwarded := make([]int, workers) // steady-service packets not dropped, per worker
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					worker := sw.NewWorker()
					out := make([]dataplane.Verdict, len(frames))
					for pass := 0; pass < passes; pass++ {
						if err := worker.ProcessBatch(frames, out); err != nil {
							errs <- err
							return
						}
						for i, v := range out {
							if flapping[i] {
								continue
							}
							if v.Drop != want[i].Drop || v.Port != want[i].Port {
								errs <- fmt.Errorf("pass %d frame %d: %+v, reference %+v", pass, i, v, want[i])
								return
							}
							if !v.Drop {
								forwarded[w]++
							}
						}
					}
				}(w)
			}
			// Control plane: flap service 0's port until the workers are done.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			ports := []uint16{g.Services[0].Port, 9999}
			commits := 0
			for running := true; running; commits++ {
				if err := movePort(agent, cfg, usecases.RepGoto, 0, ports[(commits+1)%2]); err != nil {
					t.Fatal(err)
				}
				select {
				case <-done:
					running = false
				default:
				}
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if model == "ovs" {
				return // its caches answer most packets; the slow path counts a fraction
			}
			total := 0
			for _, n := range forwarded {
				total += n
			}
			var counted uint64
			for stage := 2; stage <= len(g.Services); stage++ {
				for _, c := range sw.Counters(stage) {
					counted += c
				}
			}
			if counted != uint64(total) {
				t.Errorf("shared load-balancer stages counted %d packets over %d commits, workers forwarded %d", counted, commits, total)
			}
		})
	}
}

// BenchmarkAgentCommit is the barrier's scaling law in committed form: one
// port-change intent per op (plan, apply its flow-mods, commit) against programs
// of 160, 2 000 and 10 000 rules. With the services held at 20 the goto
// form's cost is flat in program size: it is set by the service table the
// intent touches, and the program grows in tables the commit shares. The
// two shapes the repo benchmark churns (100 and 500 services of 20
// backends) grow that table too, and the cost follows it — the table is
// still recompiled whole. The universal form pays for the one table that
// holds everything.
func BenchmarkAgentCommit(b *testing.B) {
	for _, rep := range []usecases.Representation{usecases.RepGoto, usecases.RepUniversal} {
		for _, size := range []struct{ services, backends int }{{20, 8}, {20, 100}, {20, 500}, {100, 20}, {500, 20}} {
			b.Run(fmt.Sprintf("%s/rules=%d/services=%d", rep, size.services*size.backends, size.services), func(b *testing.B) {
				g := usecases.Generate(size.services, size.backends, 1)
				p, err := g.Build(rep)
				if err != nil {
					b.Fatal(err)
				}
				agent, err := openflow.NewAgent(switches.NewESwitch(), p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := movePort(agent, g, rep, i%len(g.Services), uint16(20000+i%40000)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
