package dataplane

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"manorm/internal/classifier"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// CompileFused lowers a pipeline through the fusion compiler
// (internal/fdd) into a single-stage executable: one first-match decision
// structure whose leaves carry the concatenated actions of the fused-away
// path. Table-to-table joins, metadata plumbing and rematch re-entries
// are resolved at compile time, so forwarding is one classifier walk —
// the batch path, per-shard caches and counter machinery of the
// interpreted pipeline are reused unchanged.
//
// The fused stage keeps the *logical* pipeline observable: Verdict.Tables
// reports the depth of the fused-away path and ProcessExplain replays the
// reconstructed per-table witness, so the runtime Theorem-1 equivalence
// check compares fused and interpreted runs stage by stage.
//
// Each fused rule's outcome is precomputed into one packed verdict record
// (fusedRule): the logical depth, the output port and the drop flag, plus
// the span of its view-mutating actions (dec_ttl, set_field) in one
// slab shared by all rules. Both the fused hot loop and the general
// loop read that record and nothing else of the rule's actions.
//
// Megaflow traces of fused entries claim the full width of every consulted
// column. Per-rule prefix masks would be unsound here: fused rules
// overlap in first-match order, so a hit does not imply the packet avoids
// every earlier rule on the matched bits alone.
func CompileFused(p *mat.Pipeline, opts ...Option) (*Pipeline, error) {
	cfg := buildCompileCfg(opts)
	binder := packet.NewBinder(cfg.schema)
	for _, st := range p.Stages {
		if err := checkProvenance(st.Table, cfg.schema); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	prog, err := fdd.Fuse(p)
	if err != nil {
		return nil, fmt.Errorf("dataplane: fuse %s: %w", p.Name, err)
	}
	cls, err := classifier.NewFDD(prog.MatchTable())
	if err != nil {
		return nil, fmt.Errorf("dataplane: fused classifier %s: %w", p.Name, err)
	}
	metaIdx := assignMetaIndices(p)

	ct := &Table{
		Name:        "fused",
		cls:         cls,
		next:        -1,
		missDrop:    true,
		counters:    make([]atomic.Uint64, len(prog.Rules)),
		Template:    cls.Template(),
		fusedRules:  make([]fusedRule, len(prog.Rules)),
		fusedStages: make([][]telemetry.TraceStage, len(prog.Rules)),
	}
	for _, c := range prog.Cols {
		col := matchCol{slot: binder.Slot(c.Name), meta: -1, width: c.Width}
		if col.slot < 0 {
			return nil, fmt.Errorf("dataplane: fused %s matches %q, not a field of schema %s", p.Name, c.Name, cfg.schema.Name)
		}
		ct.cols = append(ct.cols, col)
	}
	fullPlens := make([]uint8, len(prog.Cols))
	for i, c := range prog.Cols {
		fullPlens[i] = c.Width
	}
	for ri, r := range prog.Rules {
		ct.plens = append(ct.plens, fullPlens)
		rec, err := packVerdict(r, binder, &ct.fusedActs)
		if err != nil {
			return nil, fmt.Errorf("dataplane: fused %s rule %d: %w", p.Name, ri, err)
		}
		ct.fusedRules[ri] = rec
		ct.fusedStages[ri] = fusedWitnessStages(r, metaIdx, binder)
	}

	out := &Pipeline{Name: p.Name, tables: []*Table{ct}, start: 0, fusedT: ct, fusedFDD: cls, schema: cfg.schema, opts: opts}
	out.collectMatchSlots()
	if cfg.reg != nil {
		out.tel = &pipelineTel{
			procNs: cfg.reg.Histogram(fmt.Sprintf("pipeline.%s.process_ns", out.Name)),
			stages: []stageTel{{
				lookups: cfg.reg.Counter(fmt.Sprintf("pipeline.%s.stage0.fused.lookups", out.Name)),
				matches: cfg.reg.Counter(fmt.Sprintf("pipeline.%s.stage0.fused.matches", out.Name)),
				misses:  cfg.reg.Counter(fmt.Sprintf("pipeline.%s.stage0.fused.misses", out.Name)),
			}},
		}
		// Fusion-cost instruments: decision-structure size and compile
		// latency, reported by `mabench -metrics` alongside throughput.
		prefix := fmt.Sprintf("pipeline.%s.fdd.", out.Name)
		cfg.reg.Gauge(prefix + "rules").Set(float64(len(prog.Rules)))
		cfg.reg.Gauge(prefix + "nodes").Set(float64(cls.Nodes()))
		cfg.reg.Gauge(prefix + "leaves").Set(float64(cls.Leaves()))
		cfg.reg.Gauge(prefix + "depth").Set(float64(cls.DecisionDepth()))
		cfg.reg.Gauge(prefix + "compile_ns").Set(float64(time.Since(t0)))
	}
	return out, nil
}

// fusedRule is the packed verdict record of one fused rule: what a hit
// reports (logical depth, port, drop) and the span [off, off+n) of the
// rule's view-mutating actions in Table.fusedActs.
type fusedRule struct {
	off    uint32
	n      uint16
	tables uint16
	port   uint16
	drop   bool
}

// packVerdict lowers one fused rule into its verdict record, appending
// its view-mutating actions to *slab in order. As in the general loop,
// the last output wins.
func packVerdict(r fdd.Rule, binder *packet.Binder, slab *[]Action) (fusedRule, error) {
	off := len(*slab)
	rec := fusedRule{drop: r.Drop}
	for _, a := range r.Acts {
		switch la := lowerFusedAct(a, binder); la.Kind {
		case ActOutput:
			rec.port = uint16(la.Value)
		case ActDecTTL, ActSetField:
			*slab = append(*slab, la)
		}
	}
	n := len(*slab) - off
	if r.Tables() > math.MaxUint16 || n > math.MaxUint16 || len(*slab) > math.MaxUint32 {
		return rec, fmt.Errorf("verdict record overflow: %d tables, %d rewrites", r.Tables(), n)
	}
	rec.off, rec.n, rec.tables = uint32(off), uint16(n), uint16(r.Tables())
	return rec, nil
}

// processFusedView is the fused hot path: the general stage loop
// specialized for exactly one table with no metadata registers, no goto
// dispatch and drop-on-miss, and with the decision-diagram lookup
// devirtualized. A hit reads the rule's packed verdict record and runs
// only its view-mutating actions (fusedHit, which the traced and
// ProcessExplain paths through process() share).
func (p *Pipeline) processFusedView(view *packet.FieldView, ctx *Ctx) (Verdict, error) {
	var t0 time.Time
	if p.tel != nil {
		t0 = time.Now()
		p.tel.stages[0].lookups.Inc()
	}
	t := p.fusedT
	key := ctx.key[:len(t.cols)]
	ei := -1
	ok := true
	for i := range t.cols {
		if key[i], ok = view.Ready(t.cols[i].slot); !ok {
			if key[i], ok = view.Get(t.cols[i].slot); !ok {
				break
			}
		}
	}
	if ok {
		ei = p.fusedFDD.Lookup(key)
	}
	if ei < 0 {
		if p.tel != nil {
			p.tel.stages[0].misses.Inc()
			p.tel.procNs.Observe(float64(time.Since(t0)))
		}
		return Verdict{Drop: true, Tables: 1}, nil
	}
	if p.tel != nil {
		p.tel.stages[0].matches.Inc()
	}
	t.counters[ei].Add(1)
	v := t.fusedHit(ei, view)
	if p.tel != nil {
		p.tel.procNs.Observe(float64(time.Since(t0)))
	}
	return v, nil
}

// fusedHit runs fused entry ei's view-mutating actions in order and
// returns the verdict its record holds.
func (t *Table) fusedHit(ei int, view *packet.FieldView) Verdict {
	r := &t.fusedRules[ei]
	for _, a := range t.fusedActs[r.off : r.off+uint32(r.n)] {
		if a.Kind == ActSetField {
			view.Set(a.Slot, a.Value)
		} else if ttl, ok := view.Get(a.Slot); ok && ttl > 0 { // ActDecTTL
			view.Set(a.Slot, ttl-1)
		}
	}
	return Verdict{Drop: r.drop, Port: r.port, Tables: int(r.tables)}
}

// FusedStats describes a compiled fused stage for stats readers.
type FusedStats struct {
	Rules  int `json:"rules"`
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
	Depth  int `json:"depth"` // decision-path depth, not pipeline depth
}

// Fused returns the decision-structure statistics when the pipeline was
// compiled by CompileFused, else nil.
func (p *Pipeline) Fused() *FusedStats {
	if len(p.tables) != 1 || p.tables[0].fusedRules == nil {
		return nil
	}
	c, ok := p.tables[0].cls.(*classifier.FDD)
	if !ok {
		return nil
	}
	return &FusedStats{
		Rules: len(p.tables[0].counters), Nodes: c.Nodes(),
		Leaves: c.Leaves(), Depth: c.DecisionDepth(),
	}
}

// actNone marks logical acts with no physical lowering (metadata writes:
// every downstream consumer was resolved at fusion time).
const actNone ActionKind = 0xFF

// lowerFusedAct maps one logical fused act to its physical action; like
// compileStage it lowers a write to a field outside the schema to nothing.
func lowerFusedAct(a fdd.Act, binder *packet.Binder) Action {
	switch {
	case a.Attr == "out":
		return Action{Kind: ActOutput, Value: a.Value}
	case a.Attr == "mod_ttl":
		return Action{Kind: ActDecTTL, Slot: binder.Slot(packet.FieldTTL)}
	case mat.IsLinkAttr(a.Attr):
		return Action{Kind: actNone}
	default:
		if slot := binder.ActionSlot(a.Attr); slot >= 0 {
			return Action{Kind: ActSetField, Slot: slot, Value: a.Value}
		}
		return Action{Kind: actNone}
	}
}

// assignMetaIndices replicates Compile's metadata-register numbering (in
// stage order: match columns first, then action attributes entry by
// entry), so fused witnesses render "meta[i]=v" with the same register
// indices the interpreted pipeline reports.
func assignMetaIndices(p *mat.Pipeline) map[string]int {
	idx := make(map[string]int)
	assign := func(name string) {
		if _, ok := idx[name]; !ok {
			idx[name] = len(idx)
		}
	}
	for _, st := range p.Stages {
		sch := st.Table.Schema
		for _, fi := range sch.Fields() {
			if mat.IsLinkAttr(sch[fi].Name) {
				assign(sch[fi].Name)
			}
		}
		for range st.Table.Entries {
			for i, at := range sch {
				if at.Kind == mat.Action && i != sch.Index(mat.GotoAttr) && mat.IsLinkAttr(at.Name) {
					assign(at.Name)
				}
			}
		}
	}
	return idx
}

// fusedWitnessStages pre-renders the logical per-table witness of one
// fused rule; ProcessExplain replays it verbatim.
func fusedWitnessStages(r fdd.Rule, metaIdx map[string]int, binder *packet.Binder) []telemetry.TraceStage {
	stages := make([]telemetry.TraceStage, 0, len(r.Steps))
	for _, s := range r.Steps {
		st := telemetry.TraceStage{Stage: s.Stage, Table: s.Table, Entry: s.Entry, Join: s.Join}
		for _, a := range s.Acts {
			if act, ok := renderFusedAct(a, metaIdx, binder); ok {
				st.Actions = append(st.Actions, act)
			}
		}
		stages = append(stages, st)
	}
	return stages
}

// renderFusedAct formats one logical act exactly as the interpreted
// witness renders the corresponding compiled action; ok is false for a
// write to a field outside the schema, which compiles to nothing.
func renderFusedAct(a fdd.Act, metaIdx map[string]int, binder *packet.Binder) (string, bool) {
	switch {
	case a.Attr == "out":
		return fmt.Sprintf("out=%d", a.Value), true
	case a.Attr == "mod_ttl":
		return "dec_ttl", true
	case mat.IsLinkAttr(a.Attr):
		return fmt.Sprintf("meta[%d]=%d", metaIdx[a.Attr], a.Value), true
	}
	slot := binder.ActionSlot(a.Attr)
	if slot < 0 {
		return "", false
	}
	return renderSetField(binder.Schema(), slot, a.Value), true
}
