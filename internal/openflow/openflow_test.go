package openflow

import (
	"context"
	"net"
	"reflect"
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/usecases"
)

func TestMessageRoundTrips(t *testing.T) {
	msgs := []*Message{
		{Type: TypeHello, XID: 1},
		{Type: TypeEchoRequest, XID: 2, Payload: []byte("ping")},
		{Type: TypeEchoReply, XID: 3, Payload: []byte{}},
		{Type: TypeBarrierRequest, XID: 4},
		{Type: TypeBarrierReply, XID: 5},
		{Type: TypeError, XID: 6, Err: "nope"},
		{Type: TypeStatsRequest, XID: 7, Stats: &Stats{TableID: 3}},
		{Type: TypeStatsReply, XID: 8, Stats: &Stats{TableID: 3, Counts: []uint64{1, 0, 99}}},
		{Type: TypeFlowMod, XID: 9, Flow: &FlowMod{
			Command: FlowAdd,
			TableID: 2,
			Match: []MatchField{
				{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.1")},
				{Name: "ip_src", Width: 32, Cell: mat.Prefix(0x80000000, 1, 32)},
			},
			Actions: []ActionField{
				{Name: "out", Width: 16, Value: 7},
				{Name: mat.GotoAttr, Width: 16, Value: 3},
			},
		}},
	}
	for _, m := range msgs {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		back, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if m.Type != back.Type || m.XID != back.XID || m.Err != back.Err {
			t.Errorf("%s: header mismatch: %+v vs %+v", m.Type, m, back)
		}
		if m.Flow != nil && !reflect.DeepEqual(m.Flow, back.Flow) {
			t.Errorf("flow-mod mismatch:\n%+v\n%+v", m.Flow, back.Flow)
		}
		if m.Stats != nil && !reflect.DeepEqual(m.Stats, back.Stats) {
			t.Errorf("stats mismatch: %+v vs %+v", m.Stats, back.Stats)
		}
		if len(m.Payload) > 0 && string(m.Payload) != string(back.Payload) {
			t.Errorf("payload mismatch")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{9, 1, 0, 8, 0, 0, 0, 0},  // bad version
		{1, 99, 0, 8, 0, 0, 0, 0}, // unknown type
		{1, 1, 0, 99, 0, 0, 0, 0}, // length mismatch
		{1, byte(TypeFlowMod), 0, 9, 0, 0, 0, 0, 1}, // truncated flow-mod
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

// pipePair builds a connected agent/client over net.Pipe; the agent serves
// an ESwitch model programmed with a gwlb representation.
func pipePair(t *testing.T, g *usecases.GwLB, rep usecases.Representation) (*Client, *Agent, switches.Switch) {
	t.Helper()
	p, err := g.Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	sw := switches.NewESwitch()
	agent, err := NewAgent(sw, p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go agent.Serve(context.Background(), a) //nolint:errcheck — ends when the pipe closes
	client, err := NewClient(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, agent, sw
}

func TestEchoAndBarrier(t *testing.T) {
	client, _, _ := pipePair(t, usecases.Fig1(), usecases.RepGoto)
	ctx := context.Background()
	if err := client.Echo(ctx, []byte("hello switch")); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServicePortUpdateOverChannel(t *testing.T) {
	// The §2 controllability scenario as an end-to-end control exchange:
	// tenant 1 moves from HTTP to HTTPS. On the normalized (goto)
	// pipeline this is ONE flow-mod on the service table.
	g := usecases.Fig1()
	client, agent, sw := pipePair(t, g, usecases.RepGoto)

	// Before: port 80 forwards, 443 drops.
	pkt := packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80)
	v, err := sw.Process(pkt)
	if err != nil || v.Drop {
		t.Fatalf("pre-update HTTP packet dropped (%v, %v)", v, err)
	}

	// The service table is stage 0: modify is delete+add of one entry.
	del := &FlowMod{Command: FlowDelete, TableID: 0, Match: []MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.1")},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(80, 16)},
	}}
	add := &FlowMod{Command: FlowAdd, TableID: 0,
		Match: []MatchField{
			{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.1")},
			{Name: "tcp_dst", Width: 16, Cell: mat.Exact(443, 16)},
		},
		Actions: []ActionField{{Name: mat.GotoAttr, Width: 16, Value: 1}},
	}
	ctx := context.Background()
	if err := client.SendFlowMod(ctx, del); err != nil {
		t.Fatal(err)
	}
	if err := client.SendFlowMod(ctx, add); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(ctx); err != nil {
		t.Fatal(err)
	}

	// After: 443 forwards to the same backends, 80 drops.
	v, err = sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 443))
	if err != nil || v.Drop || v.Port != 1 {
		t.Fatalf("post-update HTTPS packet: %+v, %v", v, err)
	}
	v, err = sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80))
	if err != nil || !v.Drop {
		t.Fatalf("post-update HTTP packet still forwarded: %+v", v)
	}
	if agent.ModsApplied != 2 {
		t.Errorf("ModsApplied = %d, want 2", agent.ModsApplied)
	}
	if client.ModsSent != 2 {
		t.Errorf("ModsSent = %d, want 2", client.ModsSent)
	}
}

func TestStatsOverChannel(t *testing.T) {
	g := usecases.Fig1()
	client, _, sw := pipePair(t, g, usecases.RepGoto)
	for i := 0; i < 7; i++ {
		if _, err := sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	counts, err := client.ReadStats(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 {
		t.Fatalf("stats arity = %d, want 3 services", len(counts))
	}
	if counts[0] != 7 {
		t.Errorf("service 0 count = %d, want 7", counts[0])
	}
	// Out-of-range table errors, and the failure is typed: the switch
	// rejected it (not a channel fault), so it must not be retried.
	if _, err := client.ReadStats(ctx, 99); err == nil {
		t.Errorf("stats for bad table succeeded")
	}
}

func TestAgentFlowModValidation(t *testing.T) {
	g := usecases.Fig1()
	_, agent, _ := pipePair(t, g, usecases.RepGoto)
	bad := []*FlowMod{
		nil,
		{Command: FlowAdd, TableID: 99},
		{Command: FlowAdd, TableID: 0, Match: []MatchField{{Name: "bogus", Width: 8}}},
		{Command: FlowAdd, TableID: 0, Match: []MatchField{{Name: "out", Width: 16}}},
		{Command: FlowDelete, TableID: 0, Match: []MatchField{
			{Name: "ip_dst", Width: 32, Cell: mat.IPv4("9.9.9.9")},
			{Name: "tcp_dst", Width: 16, Cell: mat.Exact(9, 16)},
		}},
		{Command: FlowModify, TableID: 0, Match: []MatchField{
			{Name: "ip_dst", Width: 32, Cell: mat.IPv4("9.9.9.9")},
		}},
		{Command: FlowAdd, TableID: 0, Match: []MatchField{
			{Name: "ip_dst", Width: 32, Cell: mat.IPv4("9.9.9.9")},
		}}, // missing goto action
		{Command: FlowModCommand(99), TableID: 0},
	}
	for i, f := range bad {
		if err := agent.ApplyFlowMod(f); err == nil {
			t.Errorf("case %d: bad flow-mod accepted", i)
		}
	}
	// Duplicate add.
	dup := &FlowMod{Command: FlowAdd, TableID: 0,
		Match: []MatchField{
			{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.1")},
			{Name: "tcp_dst", Width: 16, Cell: mat.Exact(80, 16)},
		},
		Actions: []ActionField{{Name: mat.GotoAttr, Width: 16, Value: 1}},
	}
	if err := agent.ApplyFlowMod(dup); err == nil {
		t.Errorf("duplicate add accepted")
	}
}

func TestCommitIsLazy(t *testing.T) {
	g := usecases.Fig1()
	_, agent, sw := pipePair(t, g, usecases.RepGoto)
	mod := &FlowMod{Command: FlowDelete, TableID: 0, Match: []MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.IPv4("192.0.2.3")},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(22, 16)},
	}}
	if err := agent.ApplyFlowMod(mod); err != nil {
		t.Fatal(err)
	}
	// Not yet committed: SSH still forwards.
	v, err := sw.Process(packet.TCP4(1, 2, 3, 0xC0000203, 1234, 22))
	if err != nil || v.Drop {
		t.Fatalf("uncommitted mod already visible: %+v, %v", v, err)
	}
	if err := agent.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err = sw.Process(packet.TCP4(1, 2, 3, 0xC0000203, 1234, 22))
	if err != nil || !v.Drop {
		t.Fatalf("committed delete not visible: %+v, %v", v, err)
	}
}

func TestCommitRejectsAmbiguousEntries(t *testing.T) {
	g := usecases.Fig1()
	_, agent, sw := pipePair(t, g, usecases.RepGoto)
	// Add an entry to tenant 1's LB table that overlaps the existing 0/1
	// split at equal specificity (128/1 exists; add another row matching
	// the same half via a different-but-overlapping /1? /1 values are 0
	// and 1 only, both taken. Use the service table instead: same
	// specificity as an existing row but overlapping is impossible for
	// exact matches unless identical — which FlowAdd rejects as
	// duplicate. So build ambiguity in an LB table: tenant 3's table has
	// a single catch-all; add (0.0.0.0/1) -> totals differ (1 vs 0), not
	// ambiguous. Instead add a second catch-all with different actions —
	// rejected as duplicate. The reachable ambiguity: two /1 rows in
	// tenant 3's table, then delete nothing... add 0/1 and 128/1: fine
	// (disjoint). True ambiguity needs multi-column overlap; the gwlb LB
	// tables are single-column, so ambiguity cannot arise there — which
	// is itself worth asserting: every commit path stays valid.
	if err := agent.ApplyFlowMod(&FlowMod{Command: FlowAdd, TableID: 3,
		Match:   []MatchField{{Name: "ip_src", Width: 32, Cell: mat.Prefix(0, 1, 32)}},
		Actions: []ActionField{{Name: "out", Width: 16, Value: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err != nil {
		t.Fatalf("disjoint add rejected: %v", err)
	}
	v, err := sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000203, 4, 22))
	if err != nil || v.Drop || v.Port != 9 {
		t.Fatalf("new LB split not effective: %+v, %v", v, err)
	}

	// Now a genuinely ambiguous pair through the control channel: a
	// two-column stage exists in the metadata representation (meta,
	// ip_src). Overlap at equal specificity: (tag=0 exact, src *) vs
	// an existing (tag=0, src 0/1)? totals 16 vs 17 — differ. Identical
	// totals need (tag exact, src 0/1) vs (tag exact, src 128/1) —
	// disjoint. The reachable ambiguous shape in gwlb-metadata is two
	// identical-total overlapping rows across columns; construct it on a
	// fresh two-field table via the universal representation: add
	// (ip_src 10.0.0.0/16, ip_dst *, tcp_dst 80) against existing
	// exact-VIP rows: totals 16+0+16 = 32 vs 1+32+16 = 49 — differ.
	// Overlapping equal-total pairs genuinely cannot be built from this
	// use case's shapes; assert the validator stays quiet on all of it.
	if err := agent.Commit(); err != nil {
		t.Fatalf("idempotent commit failed: %v", err)
	}
}

func TestCommitAmbiguityValidator(t *testing.T) {
	// Direct validator exercise: a hand-built pipeline where a flow-mod
	// creates cross-column ambiguity, which the barrier must reject.
	tab := mat.New("T", mat.Schema{mat.F("ip_src", 32), mat.F("tcp_dst", 16), mat.A("out", 16)})
	tab.Add(mat.IPv4Prefix("10.0.0.0", 16), mat.Any(), mat.Exact(1, 16))
	p := &mat.Pipeline{Name: "amb", Start: 0, Stages: []mat.Stage{{Table: tab, Next: -1, MissDrop: true}}}
	agent, err := NewAgent(switches.NewLagopus(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.ApplyFlowMod(&FlowMod{Command: FlowAdd, TableID: 0,
		Match:   []MatchField{{Name: "tcp_dst", Width: 16, Cell: mat.Exact(80, 16)}},
		Actions: []ActionField{{Name: "out", Width: 16, Value: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := agent.Commit(); err == nil {
		t.Fatalf("ambiguous commit accepted")
	}
}

// TestDumpFlowsRoundTrip pulls the agent's pipeline over the wire and
// checks it matches the installed logical state, including flow-mods
// accepted since the last barrier.
func TestDumpFlowsRoundTrip(t *testing.T) {
	g := usecases.Fig1()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(switches.NewESwitch(), p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go agent.Serve(context.Background(), a) //nolint:errcheck — ends with the pipe
	client, err := NewClient(b)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	dump, err := client.DumpFlows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Stages) != len(p.Stages) {
		t.Fatalf("dump has %d stages, want %d", len(dump.Stages), len(p.Stages))
	}
	for si := range p.Stages {
		if got, want := len(dump.Stages[si].Table.Entries), len(p.Stages[si].Table.Entries); got != want {
			t.Fatalf("stage %d: dump has %d entries, want %d", si, got, want)
		}
	}

	// An uncommitted flow-mod is part of the logical state and must show
	// up in the dump.
	mod := &FlowMod{Command: FlowDelete, TableID: 0, Match: []MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.Exact(uint64(g.Services[0].VIP), 32)},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(uint64(g.Services[0].Port), 16)},
	}}
	if err := client.SendFlowMod(ctx, mod); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(ctx); err != nil {
		t.Fatal(err)
	}
	dump2, err := client.DumpFlows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(dump2.Stages[0].Table.Entries); got != len(p.Stages[0].Table.Entries) {
		t.Fatalf("post-delete dump has %d first-stage entries, want %d", got, len(p.Stages[0].Table.Entries))
	}
}

// TestClientRegisterTelemetry checks the live gauges mirror the client's
// resilience counters.
func TestClientRegisterTelemetry(t *testing.T) {
	g := usecases.Fig1()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(switches.NewESwitch(), p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go agent.Serve(context.Background(), a) //nolint:errcheck
	client, err := NewClient(b)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reg := telemetry.NewRegistry()
	client.RegisterTelemetry(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"resend_queue_depth", "reconnects", "backoff_attempts", "timeouts", "mods_resent"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %q not registered", name)
		}
	}
	if got := snap.Gauges["resend_queue_depth"]; got != 0 {
		t.Fatalf("idle resend queue depth gauge = %v, want 0", got)
	}

	// Queue a mod without a barrier: the depth gauge must see it live.
	mod := &FlowMod{Command: FlowDelete, TableID: 0, Match: []MatchField{
		{Name: "ip_dst", Width: 32, Cell: mat.Exact(uint64(g.Services[0].VIP), 32)},
		{Name: "tcp_dst", Width: 16, Cell: mat.Exact(uint64(g.Services[0].Port), 16)},
	}}
	if err := client.SendFlowMod(context.Background(), mod); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["resend_queue_depth"]; got != 1 {
		t.Fatalf("resend queue depth gauge = %v, want 1", got)
	}
	if err := client.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["resend_queue_depth"]; got != 0 {
		t.Fatalf("post-barrier resend queue depth gauge = %v, want 0", got)
	}
}
