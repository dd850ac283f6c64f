package main

import (
	"fmt"
	"math/rand"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/trafficgen"
	"manorm/internal/usecases"
)

// size is a gateway & load-balancer configuration: services × backends.
type size struct{ Services, Backends int }

// table1Size is the paper's measurement setup (Table 1: 20 services of 8
// backends, 160 rules). It is the control level of every phase: a workload
// moves exactly one phase away from it.
var table1Size = size{20, 8}

// scenario is one workload. Every run executes the same three phases —
// forward packets, apply control-plane intents, run the normal-form
// toolchain — so that every end-to-end metric is measured on every
// workload; a workload sets the inputs of one phase and leaves the other
// two at the Table 1 configuration as controls. On a control phase the
// prediction for any change that does not touch that phase is "no change".
type scenario struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Phase names the phase the workload moves: forward, update, toolchain.
	Phase string

	// Forward phase: header schema, program size, distinct flows in the
	// trace, share of flows addressed to installed state, share of frames
	// damaged on the wire, and how many frames the reference is computed
	// for (0: every frame).
	Schema    string
	Forward   size
	Flows     int
	HitRatio  float64
	Malformed float64
	RefSample int

	// Update phase: the configuration behind the agent.
	Update size

	// Toolchain phase: the table normalize_ms runs on, and the program
	// verify_equiv_s and the confluence cases run on.
	Normalize size
	Verify    size

	// Sweep is the program set the normal-form layers are timed on in the
	// traced pass. It is the same on every workload: the metric names carry
	// the sizes.
	Sweep sweepSizes
}

// sweepSizes are the programs of the toolchain's size sweep, by the label
// they carry in metric names: the gateway at "160", "2k" and "10k" rules
// and an L3 router ("l3") of L3Prefixes routes.
type sweepSizes struct {
	Small, Medium, Large size
	L3Prefixes           int
}

var fullSweep = sweepSizes{Small: table1Size, Medium: size{100, 20}, Large: size{250, 40}, L3Prefixes: 10000}

// scenarios lists the five workloads in the order they are reported.
// Names are fixed; later issues refer to them.
var scenarios = []scenario{
	{
		Name:   "table1",
		Why:    "paper's Table 1 setup: 160 rules, 4096 flows fit the OVS EMC, so decode, dispatch and model overhead dominate",
		Phase:  "forward",
		Schema: packet.SchemaDefault, Forward: table1Size, Flows: 4096, HitRatio: 1,
		Update: table1Size, Normalize: table1Size, Verify: table1Size, Sweep: fullSweep,
	},
	{
		Name:   "scale",
		Why:    "10k rules, 131072 flows, 5% misses: classifier lookup dominates and the trace overflows the OVS EMC",
		Phase:  "forward",
		Schema: packet.SchemaDefault, Forward: size{250, 40}, Flows: 131072, HitRatio: 0.95, RefSample: 4096,
		Update: table1Size, Normalize: table1Size, Verify: table1Size, Sweep: fullSweep,
	},
	{
		Name:   "vxlan",
		Why:    "7-header stack through the table-driven decoder, 2% malformed frames, OVS caches bypassed: generic decode dominates",
		Phase:  "forward",
		Schema: packet.SchemaVXLAN, Forward: table1Size, Flows: 4096, HitRatio: 1, Malformed: 0.02,
		Update: table1Size, Normalize: table1Size, Verify: table1Size, Sweep: fullSweep,
	},
	{
		Name:   "churn",
		Why:    "port-change intents over TCP loopback on 2000 rules: the update path rebuilds the tables the packet path reads",
		Phase:  "update",
		Schema: packet.SchemaDefault, Forward: table1Size, Flows: 4096, HitRatio: 1,
		Update: size{100, 20}, Normalize: table1Size, Verify: table1Size, Sweep: fullSweep,
	},
	{
		Name:   "compile",
		Why:    "the normal-form toolchain at 10k and 2k rules: mine, normalize, verify, fuse, fingerprint, confluence verdicts",
		Phase:  "toolchain",
		Schema: packet.SchemaDefault, Forward: table1Size, Flows: 4096, HitRatio: 1,
		Update: table1Size, Normalize: size{250, 40}, Verify: size{100, 20}, Sweep: fullSweep,
	},
}

// servicePorts is the pool the gateway's services listen on.
var servicePorts = []uint16{80, 443, 22, 8080, 8443, 25, 53, 993}

// gateway generates a gateway & load-balancer configuration and deals the
// service ports from the pool in a seeded order. usecases.Generate draws
// each port at random, so how many services share a port — and with it the
// size of the probe domain every checker enumerates — would change with the
// seed; dealt, the seed decides which service gets which port and the cost
// of a program does not depend on the luck of the draw.
func gateway(sz size, seed int64) *usecases.GwLB {
	g := usecases.Generate(sz.Services, sz.Backends, seed)
	for i, svc := range rand.New(rand.NewSource(seed)).Perm(len(g.Services)) {
		g.Services[svc].Port = servicePorts[i%len(servicePorts)]
	}
	return g
}

func scenarioByName(name string) (scenario, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q", name)
}

// The three representations a packet cell forwards on.
var forwardReps = []usecases.Representation{usecases.RepUniversal, usecases.RepGoto, usecases.RepFused}

// program is what the forward phase needs from a use case: the universal
// table (the relational reference) and its representations.
type program interface {
	Universal() (*mat.Table, error)
	Build(rep usecases.Representation) (*mat.Pipeline, error)
}

// verdictRef is the reference outcome of one frame under the relational
// semantics of the universal table.
type verdictRef struct {
	drop bool
	port uint16
}

// forwardInputs is everything the forward phase and the packet-path layer
// probes read. It is a pure function of (scenario, seed).
type forwardInputs struct {
	schema    string
	dec       *packet.Decoder
	gwlb      *usecases.GwLB // nil on non-default schemas
	universal *mat.Table
	pipes     map[usecases.Representation]*mat.Pipeline
	frames    [][]byte
	// checkIdx are the frame indices the reference was computed for and ref
	// the expected verdicts, index-aligned with checkIdx.
	checkIdx []int
	ref      []verdictRef
}

// buildForward generates the forward-phase inputs.
func buildForward(sc scenario, seed int64) (*forwardInputs, error) {
	dec, err := packet.BuiltinDecoder(sc.Schema)
	if err != nil {
		return nil, err
	}
	in := &forwardInputs{schema: sc.Schema, dec: dec, pipes: map[usecases.Representation]*mat.Pipeline{}}
	var prog program
	switch sc.Schema {
	case packet.SchemaDefault:
		g := gateway(sc.Forward, seed)
		in.gwlb, prog = g, g
		in.frames, _ = trafficgen.Wire(trafficgen.GwLB(g, sc.Flows, sc.HitRatio, seed+1))
	case packet.SchemaVXLAN:
		prog = usecases.GenerateVXLAN(sc.Forward.Services, sc.Forward.Backends, seed)
		fs, err := trafficgen.WireStream(trafficgen.WireSpec{
			Schema: sc.Schema, N: sc.Flows, HitRatio: sc.HitRatio, Malformed: sc.Malformed,
			Seed: seed, Services: sc.Forward.Services, Backends: sc.Forward.Backends,
		})
		if err != nil {
			return nil, err
		}
		in.frames = fs.Frames()
	default:
		return nil, fmt.Errorf("no forward workload for schema %q", sc.Schema)
	}
	if in.universal, err = prog.Universal(); err != nil {
		return nil, err
	}
	for _, rep := range forwardReps {
		if in.pipes[rep], err = prog.Build(rep); err != nil {
			return nil, err
		}
	}
	in.checkIdx = sampleIndices(len(in.frames), sc.RefSample, seed+3)
	in.ref, err = referenceVerdicts(in.universal, dec, in.frames, in.checkIdx)
	return in, err
}

// sampleIndices returns the frame indices the reference covers: all of
// them when want is 0 or not smaller than n, else a seeded sample.
func sampleIndices(n, want int, seed int64) []int {
	if want <= 0 || want >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:want]
}
