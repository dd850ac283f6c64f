// Package difftest is the differential fuzzing subsystem: a registry of
// properties (Properties) checked on four input shapes — a program plus
// packets (Programs), a program over an invented header schema plus raw
// frames (Schemas), a base table plus two concurrent flow-mod batches
// (Batches), and a program plus update steps (Updates).
//
// By the paper's Theorem 1 every representation of a 1NF table is
// semantically equivalent, so for a well-formed generated input *any*
// divergence is a bug — in the normalizer, a classifier, a flow cache,
// the update path, or the harness's own reading of the semantics. The
// program properties cross-check every representation the normalizer can
// produce (core.Variants, plus fused twins) against the relational
// semantics, the NetKAT oracle and the trace witnesses, on all four
// switch models.
//
// Each shape has one generator, named planted inputs that must diverge
// (the paper's Fig. 3 caveat, the set-field/rematch hazard, a racing
// flow-mod pair), and one shrinker, which minimizes a diverging input
// into a corpus file naming its property and kind. Run shares the
// expensive per-input work across the selected properties of a shape;
// cmd/mafuzz drives the loop, and the regression tests and CI replay the
// corpus under testdata/corpus.
package difftest

import (
	"fmt"
	"slices"

	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/switches"
)

// Program is one input of any shape; the fields a shape does not use
// stay empty.
type Program struct {
	// Seed is the generator seed (0 for hand-built programs); Note a
	// provenance tag ("gen(seed=42)", "fig3-caveat(seed=7)", ...).
	Seed int64
	Note string
	// Caveat attaches the Fig. 3 decomposition (CaveatPipeline) as an
	// extra variant.
	Caveat bool
	// Table is the universal (single-table, 1NF) program; of a Batches
	// input, the base state.
	Table *mat.Table
	// Packets is the input batch of Programs and Updates: full-stack
	// Ethernet/VLAN/IPv4/TCP frames, so the relational record and the
	// parsed wire frame agree on every canonical field.
	Packets []*packet.Packet
	// Graph is the parse graph a Schemas table is written against, and
	// Frames its input batch; every executor parses its own view from the
	// bytes, as a real datapath would.
	Graph  *packet.ParseGraph
	Frames [][]byte
	// Batches are a Batches input's concurrently planned flow-mods.
	Batches [][]openflow.FlowMod
	// Steps is the number of update rounds of an Updates input.
	Steps int
}

// Clone copies the program deeply enough for the shrinker, which cuts
// list elements and projects the table. The parse graph is shared: it is
// immutable after construction.
func (p *Program) Clone() *Program {
	q := *p
	q.Table = p.Table.Clone()
	q.Packets, q.Frames = slices.Clone(p.Packets), slices.Clone(p.Frames)
	q.Batches = make([][]openflow.FlowMod, len(p.Batches))
	for i, b := range p.Batches {
		q.Batches[i] = slices.Clone(b)
	}
	return &q
}

// Size is the shrink metric: schema attributes + entries + packets or
// frames + batch mods + steps.
func (p *Program) Size() int {
	return len(p.Table.Schema) + len(p.Table.Entries) + len(p.Packets) + len(p.Frames) + len(slices.Concat(p.Batches...)) + p.Steps
}

// Divergence kinds. Within a shape, each comes from exactly one property
// (see Properties).
const (
	// KindConstruct: building or installing a representation failed.
	KindConstruct = "construct"
	// KindEval: the relational semantics reported a runtime error —
	// almost always the ambiguous-match error of a 1NF violation, which
	// is how the planted Fig. 3 decomposition announces itself.
	KindEval = "eval-error"
	// KindRelational: a variant's relational output differs from the
	// universal table's on some packet.
	KindRelational = "relational"
	// KindEvaluator: the indexed evaluator (mat.Evaluator) and the
	// definition (mat.Pipeline.Eval) disagree — always an index bug.
	KindEvaluator = "evaluator"
	// KindOracle: the NetKAT oracle found a diverging probe, or could not
	// evaluate one.
	KindOracle = "oracle"
	// KindVerdict: a compiled representation's drop/port verdict differs
	// from the relational ground truth, or was not produced.
	KindVerdict = "verdict"
	// KindMutation: the dataplane's header rewrites differ from the
	// action attributes the relational semantics assigned.
	KindMutation = "mutation"
	// KindWitness: a ProcessExplain witness contradicts its verdict.
	KindWitness = "witness"
	// KindCache: a model's verdict changed from a cold to a warm run.
	KindCache = "cache"
	// KindCounters: a fused twin's per-logical-entry counters differ from
	// its interpreted pipeline's after the same batch.
	KindCounters = "counters"
	// KindConfluence: the confluence verifier disagrees with brute-force
	// interleaving, or a compensation rollback failed.
	KindConfluence = "confluence"
	// KindNonConfluent: the batches genuinely race, as brute force
	// confirms — expected of racing updates, so mafuzz counts it.
	KindNonConfluent = "non-confluent"
	// KindIncremental: a switch updated by incremental barrier commits
	// disagrees with its from-scratch reference.
	KindIncremental = "incremental"
	// KindFixed is no divergence: it marks a corpus reproducer of a bug
	// since fixed, which must replay with no divergence at all.
	KindFixed = "fixed"
)

// Divergence is one detected disagreement between representations.
type Divergence struct {
	// Property names the property that found it; Kind is one of the Kind*
	// constants.
	Property, Kind string
	// Variant names the representation that disagreed ("universal",
	// "nf3-metadata", "dec(...)/goto", "fig3-caveat", ...), Model the
	// switch model ("dataplane" for the directly compiled pipeline, ""
	// for the relational layers).
	Variant, Model string
	// Packet indexes the input batch, or is -1 when the check is not tied
	// to one input.
	Packet int
	Detail string
}

// String renders the divergence on one line.
func (d Divergence) String() string {
	where := d.Variant
	if d.Model != "" {
		where += "@" + d.Model
	}
	if d.Packet >= 0 {
		where += fmt.Sprintf(" pkt %d", d.Packet)
	}
	return fmt.Sprintf("[%s/%s] %s: %s", d.Property, d.Kind, where, d.Detail)
}

// maxDivergences stops a run early: a broken program tends to diverge
// everywhere at once.
const maxDivergences = 16

// Config sets the models a run executes on and the NetKAT oracle's
// budget: it enumerates probe domains up to OracleExhaustive packets and
// samples OracleSample probes of larger ones (0 skips them).
type Config struct {
	Models                         []string
	OracleExhaustive, OracleSample int
}

// DefaultConfig is the configuration mafuzz and the tests run with.
func DefaultConfig() Config {
	return Config{Models: switches.ModelNames(), OracleExhaustive: 4096, OracleSample: 128}
}
