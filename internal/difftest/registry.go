package difftest

import (
	"fmt"
	"slices"

	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
)

// Property is one claim every input of a shape must satisfy. Check
// returns the divergences it finds (none on a healthy input); an error
// means the harness itself could not run, never that the input diverged.
type Property struct {
	Name  string
	Input *Shape
	Check func(*Case) ([]Divergence, error)
	Doc   string
}

// Shape is one kind of input: its generator of seeded, deterministic
// inputs, its planted inputs, the default budget mafuzz spends on it (a
// duration, "30s", or an iteration count, "250x"), and unexported, what
// its properties share (prepare), its corpus fields (decode) and what its
// shrinker may cut, in order (parts).
type Shape struct {
	Name, Budget string
	Generate     func(seed int64) *Program
	Plants       []Plant
	prepare      func(*Case) error
	decode       func(*corpusFile, *Program) error
	parts        []part
}

// Plant is a planted input: on healthy code, Property must report a
// divergence of Kind on it. mafuzz names it "<property>/<name>".
type Plant struct {
	Name, Property, Kind string
	New                  func(seed int64) (*Program, error)
}

// The four input shapes.
var (
	Programs = &Shape{
		Name: "program", Budget: "30s",
		Generate: Generate,
		Plants: []Plant{
			{"fig3-caveat", "relational", KindEval, PlantCaveat},
			{"fig3-caveat", "oracle", KindOracle, PlantCaveat},
			{"rematch-hazard", "forwarding", KindVerdict, func(seed int64) (*Program, error) { return PlantRematchHazard(seed), nil }},
		},
		prepare: preparePackets, decode: decodePackets,
		parts: []part{packetsPart, entriesPart, attrsPart},
	}
	Schemas = &Shape{
		Name: "schema", Budget: "30s",
		Generate: GenerateSchema,
		Plants: []Plant{
			{"schema-caveat", "schema-relational", KindEval, PlantSchemaCaveat},
			{"schema-caveat", "schema-oracle", KindOracle, PlantSchemaCaveat},
			{"schema-hazard", "schema-forwarding", KindVerdict, PlantSchemaHazard},
		},
		prepare: prepareFrames, decode: decodeFrames,
		parts: []part{framesPart, entriesPart, attrsPart},
	}
	Batches = &Shape{
		Name: "batches", Budget: "250x",
		Generate: GenerateConcurrent,
		Plants: []Plant{
			{"confluence-pair", "confluence", KindNonConfluent, func(seed int64) (*Program, error) { return PlantConfluencePair(seed), nil }},
		},
		decode: decodeBatches,
		parts:  []part{modsPart, batchesPart, entriesPart, attrsPart},
	}
	Updates = &Shape{
		Name: "updates", Budget: "20s",
		Generate: GenerateUpdates,
		decode:   decodeUpdates,
		parts:    []part{stepsPart, packetsPart, entriesPart, attrsPart},
	}
)

// Shapes lists the input shapes in the order mafuzz runs them.
func Shapes() []*Shape { return []*Shape{Programs, Schemas, Batches, Updates} }

// Properties returns the registry, grouped by shape in Shapes order.
func Properties() []Property { return registry }

var registry = slices.Concat(programProperties(Programs, ""), programProperties(Schemas, "schema-"), []Property{
	{"confluence", Batches, checkConfluence, "The confluence verifier's verdict on two concurrent flow-mod batches " +
		"agrees with brute-force interleaving on the NetKAT oracle. Kinds: confluence; non-confluent (a genuine " +
		"race: counted, not failed)."},
	{"incremental", Updates, checkIncremental, "After every barrier of seeded flow-mod churn behind an agent, the " +
		"commit's verdict, the switch's forwarding and its installed shape equal a from-scratch check and Install, " +
		"on every model. Kind: incremental."},
})

// programProperties are the checks of the two program shapes; prefix
// keeps the schema-shape names apart.
func programProperties(in *Shape, prefix string) []Property {
	return []Property{
		{prefix + "relational", in, checkRelational, "Every representation gives the universal table's relational " +
			"output on every input, and the indexed evaluator agrees with the definition. Kinds: eval-error, " +
			"relational, evaluator."},
		{prefix + "oracle", in, checkOracle, "Every representation equals the universal table on the NetKAT " +
			"oracle, exhaustively where the probe domain is small. Kind: oracle."},
		{prefix + "forwarding", in, checkForwarding, "Every representation and its fused twin builds and forwards " +
			"as the relational ground truth says: on the raw dataplane (verdict, rewrites, witness, frames path) " +
			"and on every model, cold and cache-warm. Kinds: construct, verdict, mutation, witness, cache."},
		{prefix + "counters", in, checkCounters, "After the same batch, a fused twin's per-entry counters of every " +
			"logical stage equal its interpreted pipeline's, on the raw dataplane, eswitch, lagopus and noviflow. " +
			"OVS is left out until its cache hits credit entry counters: today they count the slow path only. " +
			"Kind: counters."},
	}
}

// Lookup returns the property called name.
func Lookup(name string) (Property, bool) {
	i := slices.IndexFunc(registry, func(p Property) bool { return p.Name == name })
	return registry[max(i, 0)], i >= 0
}

// Case is one input under test plus the work the properties of its shape
// share, built once per input: by Run, and on first use by the checks.
type Case struct {
	*Program
	cfg   Config
	tally map[string]int

	// The program shapes' shared work: the representations (vs[0] is the
	// universal table; comp adds the fused twins), the parsed batch and
	// its ground truth, the dataplanes, and one switch per model.
	vs, comp []core.Variant
	twins    map[string]core.Variant // by variant name
	dec      *packet.Decoder
	recs     []mat.Record
	frames   [][]byte
	truth    []truth
	truthErr *Divergence  // the universal table itself errs: nothing to compare
	built    []Divergence // construct failures, which forwarding reports
	dps      map[string]*dataplane.Pipeline
	sws      map[string]*install
	arena    *dataplane.FrameBatch
}

// Run checks one input against props, which must all take the same
// shape. It returns the divergences (stopping early once
// maxDivergences accumulated) and the shape's tallies of what it
// checked ("packets", "barriers", "non-confluent", ...).
func Run(p *Program, props []Property, cfg Config) ([]Divergence, map[string]int, error) {
	c := &Case{Program: p, cfg: cfg, tally: make(map[string]int)}
	for _, prop := range props {
		if prop.Input != props[0].Input {
			return nil, nil, fmt.Errorf("difftest: %s takes %s inputs, %s takes %s", prop.Name, prop.Input.Name, props[0].Name, props[0].Input.Name)
		}
	}
	if len(props) > 0 && props[0].Input.prepare != nil {
		if err := props[0].Input.prepare(c); err != nil {
			return nil, nil, err
		}
	}
	var divs []Divergence
	for _, prop := range props {
		if len(divs) >= maxDivergences {
			break
		}
		ds, err := prop.Check(c)
		if err != nil {
			return nil, nil, fmt.Errorf("difftest: %s: %w", prop.Name, err)
		}
		for _, d := range ds {
			d.Property = prop.Name
			divs = append(divs, d)
		}
	}
	return divs[:min(len(divs), maxDivergences)], c.tally, nil
}

// report collects one check's divergences up to the run's cap.
type report []Divergence

func (r report) full() bool { return len(r) >= maxDivergences }

func (r *report) add(kind, variant, model string, pkt int, format string, args ...any) {
	if !r.full() {
		*r = append(*r, Divergence{Kind: kind, Variant: variant, Model: model, Packet: pkt, Detail: fmt.Sprintf(format, args...)})
	}
}

// Reproduces reports whether divs are what a reproducer recorded: at
// least one divergence of kind, or none at all for KindFixed.
func Reproduces(divs []Divergence, kind string) bool {
	if kind == KindFixed {
		return len(divs) == 0
	}
	return slices.ContainsFunc(divs, func(d Divergence) bool { return d.Kind == kind })
}

// Shrink greedily minimizes an input on which prop reports kind: it
// repeatedly tries cutting one element of each of the shape's parts
// (packets or frames, flow-mods, batches, steps, entries, attributes),
// keeping a cut only if prop still reports kind. The result is the
// reproducer written to the corpus — typically a handful of entries and
// one or two packets instead of the generated input. An input on which
// prop does not report kind is returned unchanged.
func Shrink(p *Program, prop Property, kind string, cfg Config) *Program {
	still := func(c *Program) bool {
		divs, _, err := Run(c, []Property{prop}, cfg)
		return err == nil && kind != KindFixed && Reproduces(divs, kind)
	}
	if !still(p) {
		return p
	}
	for changed := true; changed; {
		changed = false
		for _, pt := range prop.Input.parts {
			for i := pt.n(p) - 1; i >= 0; i-- {
				if c := p.Clone(); pt.cut(c, i) && still(c) {
					p, changed = c, true
				}
			}
		}
	}
	return p
}

// part is one list the shrinker cuts from: its length, and a cut of
// element i, which reports false where the cut is not allowed. Every cut
// keeps the input replayable: at least one packet or frame, entry, match
// field, flow-mod per batch and step, and two batches (one batch cannot
// race with itself).
type part struct {
	n   func(*Program) int
	cut func(*Program, int) bool
}

// list is the part over one slice of the input, of which atLeast
// elements stay.
func list[T any](of func(*Program) *[]T, atLeast int) part {
	return part{func(p *Program) int { return len(*of(p)) }, func(p *Program, i int) bool {
		s := of(p)
		*s = slices.Delete(*s, i, i+1)
		return len(*s) >= atLeast
	}}
}

var (
	packetsPart = list(func(p *Program) *[]*packet.Packet { return &p.Packets }, 1)
	framesPart  = list(func(p *Program) *[][]byte { return &p.Frames }, 1)
	entriesPart = list(func(p *Program) *[]mat.Entry { return &p.Table.Entries }, 1)
	batchesPart = list(func(p *Program) *[][]openflow.FlowMod { return &p.Batches }, 2)
	stepsPart   = part{func(p *Program) int { return p.Steps }, func(p *Program, _ int) bool {
		p.Steps--
		return p.Steps > 0
	}}
	// modsPart indexes the flow-mods of all batches in order.
	modsPart = part{func(p *Program) int { return len(slices.Concat(p.Batches...)) }, func(p *Program, i int) bool {
		for bi, b := range p.Batches {
			if i < len(b) {
				p.Batches[bi] = slices.Delete(b, i, i+1)
				return len(p.Batches[bi]) > 0
			}
			i -= len(b)
		}
		return false
	}}
	// attrsPart projects the table onto a smaller schema; projection
	// dedupes rows, so this can shrink the entry set too.
	attrsPart = part{func(p *Program) int { return len(p.Table.Schema) }, func(p *Program, i int) bool {
		keep := mat.FullSet(len(p.Table.Schema)).Remove(i)
		if len(p.Table.Schema) <= 2 || !slices.ContainsFunc(keep.Members(), func(a int) bool { return p.Table.Schema[a].Kind == mat.Field }) {
			return false
		}
		prov := p.Table.Provenance
		p.Table = p.Table.Project(p.Table.Name, keep)
		p.Table.Provenance = prov
		return true
	}}
)
