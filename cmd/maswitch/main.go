// Command maswitch runs one switch model loaded with a gateway &
// load-balancer representation, optionally exposing its OpenFlow-like
// control channel on a TCP port, and reports forwarding rate and latency
// for a generated traffic run.
//
// With -churn it instead runs a service-update burst against the switch
// over a fault-injected control channel (-loss, -jitter, -cut) and
// reports the client's retry/reconnect counters plus whether the final
// switch state matches the fault-free run. The fault schedule is seeded
// (-faultseed), so the counters are reproducible.
//
// Usage:
//
//	maswitch -switch eswitch -rep universal -services 20 -backends 8
//	maswitch -switch eswitch -rep goto -listen 127.0.0.1:6653 &
//	          # then drive it with a controller (see examples/reactive)
//	maswitch -rep goto -churn 40 -loss 0.01 -jitter 25ms -cut
//	maswitch -rep goto -listen 127.0.0.1:6653 -fabric 3 -fabricmode partition &
//	          # serve 3 control channels (ports 6653..6655), each member
//	          # holding its placement shard — drive them as one logical
//	          # switch with a fabric controller (internal/fabric)
//
// With -schema the switch forwards another header schema: frames are
// decoded by the named shipped schema's programmable parse graph instead
// of the default schema's decoder, and the workload is that schema's use
// case (VXLAN tenant gateway, MPLS label-switching router, GTP-U mobile
// gateway):
//
//	maswitch -switch ovs -rep goto -schema vxlan -packets 200000
//
// The shared observability flags (internal/cliflags) apply:
// -metrics-addr serves the switch's telemetry registry as JSON plus
// net/http/pprof; -trace-sample N records a pipeline witness for every
// Nth packet and cross-checks its verdict against the switch's; -json
// emits the run summary (with the full telemetry snapshot) as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"manorm/internal/bench"
	"manorm/internal/cliflags"
	"manorm/internal/dataplane"
	"manorm/internal/fabric"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/stats"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// options carries the full flag set; churn > 0 selects the
// fault-injection mode.
type options struct {
	swName   string
	rep      usecases.Representation
	services int
	backends int
	packets  int
	seed     int64
	listen   string

	fabric     int
	fabricMode string

	churn     int
	loss      float64
	jitter    time.Duration
	cut       bool
	faultSeed int64

	// Observability and schema selection (shared flag set,
	// internal/cliflags).
	metricsAddr string
	traceSample int
	jsonOut     bool
	schema      string
}

func main() {
	var o options
	var rep string
	flag.StringVar(&o.swName, "switch", "eswitch", "switch model: ovs, eswitch, lagopus, noviflow")
	flag.StringVar(&rep, "rep", "universal", "representation: universal, goto, metadata, rematch, fused")
	flag.IntVar(&o.services, "services", 20, "number of services (N)")
	flag.IntVar(&o.backends, "backends", 8, "backends per service (M)")
	flag.IntVar(&o.packets, "packets", 1_000_000, "packets to forward")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed")
	flag.StringVar(&o.listen, "listen", "", "serve the control channel on this TCP address (runs until killed)")
	flag.IntVar(&o.fabric, "fabric", 1, "serve this many fabric members on ports counting up from -listen")
	flag.StringVar(&o.fabricMode, "fabricmode", "replicate", "fabric placement: replicate or partition")
	flag.IntVar(&o.churn, "churn", 0, "run this many service updates over a fault-injected control channel instead of forwarding")
	flag.Float64Var(&o.loss, "loss", 0, "control-channel frame loss probability (churn mode)")
	flag.DurationVar(&o.jitter, "jitter", 0, "control-channel jitter upper bound (churn mode)")
	flag.BoolVar(&o.cut, "cut", false, "force one mid-churn disconnect (churn mode)")
	flag.Int64Var(&o.faultSeed, "faultseed", 1, "fault schedule seed (churn mode)")
	obs := cliflags.Register(flag.CommandLine)
	flag.Parse()
	o.rep = usecases.Representation(rep)
	o.metricsAddr = obs.MetricsAddr
	o.traceSample = obs.TraceSample
	o.jsonOut = obs.JSON
	o.schema = obs.Schema

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "maswitch:", err)
		os.Exit(1)
	}
}

// summary is the -json report of a forwarding run.
type summary struct {
	Switch    string                  `json:"switch"`
	Rep       usecases.Representation `json:"rep"`
	Schema    string                  `json:"schema,omitempty"`
	Packets   int                     `json:"packets"`
	RateMpps  float64                 `json:"mpps"`
	LoopMpps  float64                 `json:"loop_mpps"`
	ServiceNs struct {
		P50 float64 `json:"p50"`
		P75 float64 `json:"p75"`
		P99 float64 `json:"p99"`
	} `json:"service_ns"`
	// WitnessMismatches counts sampled packets whose witness verdict
	// disagreed with the switch's (must be 0).
	WitnessMismatches int                 `json:"witness_mismatches"`
	Telemetry         *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func run(o options) error {
	if o.churn > 0 {
		return runChurn(o)
	}
	if o.fabric > 1 {
		if o.listen == "" {
			return fmt.Errorf("-fabric needs -listen")
		}
		return runFabric(o)
	}
	if o.schema == packet.SchemaDefault {
		o.schema = ""
	}
	dec := packet.DefaultDecoder()
	if o.schema != "" {
		if o.listen != "" {
			return fmt.Errorf("-schema does not combine with -listen")
		}
		var err error
		if dec, err = packet.BuiltinDecoder(o.schema); err != nil {
			return err
		}
	}
	reg := telemetry.NewRegistry()
	sw, err := switches.New(o.swName, switches.WithTelemetry(reg), switches.WithSchema(dec))
	if err != nil {
		return err
	}
	reg.Register("switch", sw)
	// The workload: the gateway & load balancer over canonical frames, or
	// the -schema use case over its own frames.
	var p *mat.Pipeline
	var frames [][]byte
	if o.schema == "" {
		g := usecases.Generate(o.services, o.backends, o.seed)
		if p, err = g.Build(o.rep); err != nil {
			return err
		}
		frames, _ = trafficgen.Wire(trafficgen.GwLB(g, 4096, 1.0, o.seed+1))
	} else {
		cfg := bench.Config{Services: o.services, Backends: o.backends, Seed: o.seed}
		if p, frames, err = bench.SchemaWorkload(o.schema, o.rep, cfg); err != nil {
			return err
		}
	}
	agent, err := openflow.NewAgent(sw, p)
	if err != nil {
		return err
	}
	reg.Register("agent", agent)
	fmt.Printf("maswitch: %s loaded with %s under schema %s (%d stages, %d entries, %d fields)\n",
		o.swName, o.rep, dec.Schema().Name, p.Depth(), p.EntryCount(), p.FieldCount())

	if o.metricsAddr != "" {
		srv, err := telemetry.Serve(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("maswitch: metrics and pprof on http://%s/metrics\n", srv.Addr)
	}

	// The witness datapath is a parallel compilation of the same pipeline
	// used only for sampled frames — the forwarding hot path never pays
	// for explanation. It replays them through ProcessExplainView, so the
	// cross-check covers the decoder as well as the match logic.
	sink := telemetry.NewTraceSink(o.traceSample, 32)
	var wdp *dataplane.Pipeline
	var wctx *dataplane.Ctx
	var wview *packet.FieldView
	if o.traceSample > 0 {
		reg.SetTraceSink(sink)
		if wdp, err = dataplane.Compile(p, dataplane.AutoTemplates, dataplane.WithSchema(dec.Schema())); err != nil {
			return err
		}
		wctx = wdp.NewCtx()
		wview = dec.NewView()
	}

	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return err
		}
		fmt.Printf("maswitch: control channel on %s\n", ln.Addr())
		for {
			c, err := ln.Accept()
			if err != nil {
				return err
			}
			go func() {
				if err := agent.Serve(nil, c); err != nil {
					fmt.Fprintf(os.Stderr, "maswitch: control session ended: %v\n", err)
				}
			}()
		}
	}

	// Warm-up over one pass of the trace.
	for _, f := range frames {
		if _, err := sw.ProcessFrame(f); err != nil {
			return err
		}
	}
	lat := stats.NewReservoir(8192, o.seed)
	mismatches := 0
	start := time.Now()
	for i := 0; i < o.packets; i++ {
		f := frames[i%len(frames)]
		var wit *telemetry.Trace
		if sink.Tick() {
			// Explain a fresh parse of the same frame: the switch decodes
			// into its own view inside ProcessFrame, so the witness never
			// observes its mutations.
			if werr := dec.ParseInto(wview, f); werr == nil {
				if _, tr, werr := wdp.ProcessExplainView(wview, wctx); werr == nil {
					sink.Add(*tr)
					wit = tr
				}
			}
		}
		t0 := time.Now()
		v, err := sw.ProcessFrame(f)
		if err != nil {
			return err
		}
		if i%16 == 0 {
			lat.Add(float64(time.Since(t0).Nanoseconds()))
		}
		if wit != nil && (wit.Drop != v.Drop || (!v.Drop && wit.Port != v.Port)) {
			mismatches++
		}
	}
	return report(o, sw, time.Since(start), lat, mismatches, sink, reg)
}

// report prints (or JSON-encodes, -json) the forwarding-run summary.
// elapsed is the timed loop's wall time over o.packets; a hardware model
// reports its line rate.
func report(o options, sw switches.Switch, elapsed time.Duration, lat *stats.Reservoir, mismatches int, sink *telemetry.TraceSink, reg *telemetry.Registry) error {
	loopMpps := float64(o.packets) / elapsed.Seconds() / 1e6
	rate := loopMpps
	if pm := sw.Perf(); pm.HWLineRateMpps > 0 {
		rate = pm.HWLineRateMpps
	}
	if o.jsonOut {
		var s summary
		s.Switch, s.Rep, s.Schema, s.Packets = o.swName, o.rep, o.schema, o.packets
		s.RateMpps, s.LoopMpps = rate, loopMpps
		s.ServiceNs.P50 = lat.Quantile(0.5)
		s.ServiceNs.P75 = lat.Quantile(0.75)
		s.ServiceNs.P99 = lat.Quantile(0.99)
		s.WitnessMismatches = mismatches
		snap := reg.Snapshot()
		s.Telemetry = &snap
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&s)
	}

	fmt.Printf("maswitch: forwarded %d packets\n", o.packets)
	fmt.Printf("maswitch: rate %.2f Mpps (software loop: %.2f Mpps)\n", rate, loopMpps)
	fmt.Printf("maswitch: service time p50/p75/p99 = %.0f/%.0f/%.0f ns\n",
		lat.Quantile(0.5), lat.Quantile(0.75), lat.Quantile(0.99))
	if o.traceSample > 0 {
		fmt.Printf("maswitch: %d packets witnessed, %d verdict mismatches\n", sink.Total(), mismatches)
		if traces := sink.Snapshot(); len(traces) > 0 {
			fmt.Print(traces[len(traces)-1].String())
		}
	}
	return nil
}

// runChurn drives the churn-under-faults experiment for one
// representation and prints the deterministic resilience counters.
// runFabric serves a fabric of control channels: the built pipeline is
// placed across -fabric members (replicated, or partitioned by entry-
// stage match key) and each member's shard is loaded into its own switch
// behind its own TCP listener, on ports counting up from -listen. A
// fabric controller (internal/fabric) can then drive the members as one
// logical switch with epoch-stamped updates and convergence checking.
func runFabric(o options) error {
	var mode fabric.PlacementMode
	switch o.fabricMode {
	case "replicate":
		mode = fabric.Replicate
	case "partition":
		mode = fabric.Partition
	default:
		return fmt.Errorf("unknown fabric mode %q (replicate, partition)", o.fabricMode)
	}
	g := usecases.Generate(o.services, o.backends, o.seed)
	p, err := g.Build(o.rep)
	if err != nil {
		return err
	}
	placed, err := fabric.Place(p, o.fabric, mode)
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(o.listen)
	if err != nil {
		return err
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("-listen port: %w", err)
	}

	reg := telemetry.NewRegistry()
	fmt.Printf("maswitch: fabric of %d members, %s placement of %s (%d stages, %d entries)\n",
		o.fabric, mode, o.rep, p.Depth(), p.EntryCount())
	for i, mp := range placed {
		sw, err := switches.New(o.swName)
		if err != nil {
			return err
		}
		agent, err := openflow.NewAgent(sw, mp)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("sw%d", i)
		reg.Register(name, agent)
		addr := net.JoinHostPort(host, portStr)
		if basePort > 0 {
			addr = net.JoinHostPort(host, strconv.Itoa(basePort+i))
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		fmt.Printf("maswitch: member %s (%d entries) control channel on %s\n",
			name, mp.EntryCount(), ln.Addr())
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					if err := agent.Serve(nil, c); err != nil {
						fmt.Fprintf(os.Stderr, "maswitch: %s control session ended: %v\n", name, err)
					}
				}()
			}
		}()
	}
	if o.metricsAddr != "" {
		srv, err := telemetry.Serve(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("maswitch: metrics and pprof on http://%s/metrics\n", srv.Addr)
	}
	select {}
}

func runChurn(o options) error {
	cfg := bench.Config{Services: o.services, Backends: o.backends, Seed: o.seed}
	fs := bench.FaultSpec{Loss: o.loss, Jitter: o.jitter, Cut: o.cut, Seed: o.faultSeed}
	row, err := bench.FaultChurnOne(cfg, o.rep, o.churn, fs)
	if err != nil {
		return err
	}
	state := "OK (equals fault-free run)"
	if !row.StateOK {
		state = "DIVERGED"
	}
	m := row.Client.Counters
	lat := row.Client.Histograms["rpc_latency_ns"]
	fmt.Printf("maswitch churn: %s, %d updates under %s (seed %d)\n", o.rep, o.churn, fs, o.faultSeed)
	fmt.Printf("  flow-mods sent      %d\n", m["mods_sent"])
	fmt.Printf("  resent after loss   %d\n", m["mods_resent"])
	fmt.Printf("  rpc retries         %d (timeouts %d)\n", m["retries"], m["timeouts"])
	fmt.Printf("  reconnects          %d (sessions %d)\n", m["reconnects"], row.Sessions)
	fmt.Printf("  dup mods absorbed   %d\n", row.DupsSkipped)
	fmt.Printf("  rpc latency p50/p99 %.2f/%.2f ms\n", lat.P50/1e6, lat.P99/1e6)
	fmt.Printf("  final state         %s\n", state)
	return nil
}
