// Package dataplane compiles match-action pipelines (internal/mat) into an
// executable form and runs packets through them: per-table classifiers,
// compiled action lists, metadata registers, goto control flow and
// per-entry counters.
//
// This is the substrate every switch model in internal/switches builds on;
// the models differ only in how they choose classifier templates and what
// per-stage costs they add.
package dataplane

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"manorm/internal/classifier"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// ActionKind enumerates compiled packet actions.
type ActionKind uint8

const (
	// ActSetField writes a header field.
	ActSetField ActionKind = iota
	// ActOutput selects the output port (the "out" attribute).
	ActOutput
	// ActSetMeta writes a metadata register.
	ActSetMeta
	// ActDecTTL decrements the IPv4 TTL (the "mod_ttl" attribute).
	ActDecTTL
	// ActDrop drops the packet. Source pipelines express drops only as
	// miss policies; fused rule lists (CompileFused) need the explicit
	// form because a fused drop path must keep its position in the
	// first-match order rather than fall through to a table miss.
	ActDrop
)

// Action is one compiled action.
type Action struct {
	Kind  ActionKind
	Field string // for ActSetField
	Meta  int    // register index for ActSetMeta
	Slot  int    // target field slot under WithSchema (set-field / dec-ttl)
	Value uint64
}

// matchCol describes where one match column's key word comes from.
type matchCol struct {
	field string // packet field name ("" when meta >= 0)
	fid   int    // dense packet field id (packet.FieldID), -1 for unknown
	slot  int    // schema slot index under WithSchema, -1 otherwise
	meta  int    // metadata register index, -1 for packet fields
	width uint8
}

// Table is a compiled match-action table.
type Table struct {
	Name  string
	cols  []matchCol
	cls   classifier.Classifier
	acts  [][]Action
	gotos []int // per entry: target stage or -1
	// plens holds each entry's per-column prefix lengths, for megaflow
	// wildcard tracing.
	plens    [][]uint8
	next     int
	missDrop bool
	counters []atomic.Uint64
	// Template records which classifier template the table compiled to.
	Template string
	// Fused-table metadata (nil on interpreted tables): per entry, the
	// logical depth of the source path and the reconstructed witness
	// stages (see CompileFused).
	fusedTables []int32
	fusedStages [][]telemetry.TraceStage
}

// Verdict is the result of processing one packet.
type Verdict struct {
	// Drop reports a table miss on a drop-on-miss stage.
	Drop bool
	// Port is the selected output port (valid when !Drop and an output
	// action ran).
	Port uint16
	// Tables is the number of tables traversed (pipeline depth cost).
	Tables int
}

// Pipeline is an executable pipeline.
type Pipeline struct {
	Name   string
	tables []*Table
	start  int
	// tel holds the pre-resolved per-stage instruments; nil when the
	// pipeline is uninstrumented (the allocation-free fast path checks a
	// single pointer).
	tel *pipelineTel
	// fusedT/fusedFDD, set by CompileFused, route Process/ProcessBatch
	// through the straight-line fused hot path (one table, no metadata
	// registers, no goto dispatch, drop on miss) with the classifier call
	// devirtualized. Traced processing still takes the general loop.
	fusedT   *Table
	fusedFDD *classifier.FDD
	// schema, set by WithSchema, enables the FieldView entry points
	// (ProcessView and friends): match columns and rewriting actions were
	// resolved to the schema's slot indices at compile time.
	schema *packet.HeaderSchema
	// What Recompile needs to lower a stage the way Compile lowered the
	// others: the template selector, the options as given, the schema's
	// binder (nil without one) and the metadata register of every link
	// attribute met so far, numbered in first-encounter order (a Ctx holds
	// one register per name; a fused pipeline has none).
	sel     TemplateSelector
	opts    []Option
	binder  *packet.Binder
	metaIdx map[string]int
}

// Schema returns the header schema the pipeline was compiled against, or
// nil when compiled for the fixed default Packet path.
func (p *Pipeline) Schema() *packet.HeaderSchema { return p.schema }

// pipelineTel is the instrument set of one compiled pipeline: per-stage
// lookup/match/miss counters and the per-packet processing latency
// histogram. All instruments live in the registry passed to Compile, so
// snapshots of that registry carry them; the pipeline only keeps resolved
// pointers for the hot path.
type pipelineTel struct {
	stages []stageTel
	procNs *telemetry.Histogram
}

// stageTel is one stage's counter set.
type stageTel struct {
	lookups *telemetry.Counter
	matches *telemetry.Counter
	misses  *telemetry.Counter
}

// Option configures pipeline compilation.
type Option func(*compileCfg)

type compileCfg struct {
	reg    *telemetry.Registry
	schema *packet.HeaderSchema
}

// WithTelemetry instruments the compiled pipeline against the registry:
// per-stage lookup/match/miss counters
// ("pipeline.<name>.stage<i>.<table>.lookups", ".matches", ".misses") and
// a per-packet processing latency histogram ("pipeline.<name>.process_ns").
// A nil registry leaves the pipeline uninstrumented, so callers can pass
// their (possibly nil) registry through unconditionally.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *compileCfg) { c.reg = reg }
}

// WithSchema compiles the pipeline against a header schema: every match
// column and rewriting action resolves to a FieldView slot index, and
// the pipeline becomes processable through ProcessView on decoded views
// of that schema. Compilation fails on attribute names outside the
// schema and on tables whose Provenance names a different schema — a
// VXLAN program cannot silently bind to the default parser. A nil schema
// is a no-op, keeping the fixed Packet fast path.
func WithSchema(s *packet.HeaderSchema) Option {
	return func(c *compileCfg) { c.schema = s }
}

// checkProvenance rejects schema/table mismatches in either direction.
func checkProvenance(t *mat.Table, schema *packet.HeaderSchema) error {
	if t.Provenance == "" {
		return nil
	}
	if schema == nil {
		if t.Provenance != packet.SchemaDefault {
			return fmt.Errorf("dataplane: table %s was built against schema %q; compile it with WithSchema", t.Name, t.Provenance)
		}
		return nil
	}
	if t.Provenance != schema.Name {
		return fmt.Errorf("dataplane: table %s was built against schema %q, not %q", t.Name, t.Provenance, schema.Name)
	}
	return nil
}

// Ctx is per-worker scratch state: metadata registers and the key buffer.
// One Ctx per goroutine; Process must not be called concurrently on the
// same Ctx.
type Ctx struct {
	meta []uint64
	key  []uint64
}

// NewCtx allocates scratch state for the pipeline.
func (p *Pipeline) NewCtx() *Ctx {
	return &Ctx{meta: make([]uint64, len(p.metaIdx)), key: make([]uint64, 16)}
}

// TemplateSelector decides the classifier template for each stage table —
// the knob that distinguishes the switch models.
type TemplateSelector func(t *mat.Table) classifier.Template

// AutoTemplates picks the best template per shape (the ESwitch strategy).
func AutoTemplates(*mat.Table) classifier.Template { return classifier.Auto }

// FixedTemplate always uses one template (e.g. ternary for Lagopus-like
// representation-agnostic datapaths).
func FixedTemplate(tmpl classifier.Template) TemplateSelector {
	return func(*mat.Table) classifier.Template { return tmpl }
}

// Compile lowers a mat.Pipeline into executable form. The selector chooses
// each stage's classifier template; metadata attributes become registers
// indexed per distinct name. Options attach cross-cutting concerns, e.g.
// WithTelemetry. It is the from-scratch case of Recompile: every stage
// dirty, no previous snapshot.
func Compile(p *mat.Pipeline, sel TemplateSelector, opts ...Option) (*Pipeline, error) {
	if p.Fused {
		// The fusion hint overrides per-stage template selection: the whole
		// pipeline becomes one first-match decision structure.
		return CompileFused(p, opts...)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sel == nil {
		sel = AutoTemplates
	}
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	out := &Pipeline{
		Name: p.Name, start: p.Start, schema: cfg.schema,
		tables: make([]*Table, len(p.Stages)),
		sel:    sel, opts: opts, metaIdx: make(map[string]int),
	}
	if cfg.schema != nil {
		out.binder = packet.NewBinder(cfg.schema)
	}
	for si := range p.Stages {
		if err := out.compileStage(p, si); err != nil {
			return nil, err
		}
	}
	if cfg.reg != nil {
		tel := &pipelineTel{
			procNs: cfg.reg.Histogram(fmt.Sprintf("pipeline.%s.process_ns", out.Name)),
		}
		for i, t := range out.tables {
			prefix := fmt.Sprintf("pipeline.%s.stage%d.%s.", out.Name, i, t.Name)
			tel.stages = append(tel.stages, stageTel{
				lookups: cfg.reg.Counter(prefix + "lookups"),
				matches: cfg.reg.Counter(prefix + "matches"),
				misses:  cfg.reg.Counter(prefix + "misses"),
			})
		}
		out.tel = tel
	}
	return out, nil
}

// Recompile returns a new snapshot of the pipeline for the program src,
// which must be the program the receiver was compiled from with only the
// entries of the dirty stages changed. Those stages are lowered afresh;
// every other stage is the receiver's own *Table — classifier, actions and
// per-entry counters — shared with the snapshot in-flight workers are
// still using, so the cost is that of the dirty tables and a clean table's
// counters keep counting across the swap. The counters of a recompiled
// table restart.
//
// A fused pipeline has no per-stage form to patch: fusion is
// install-time-only, and Recompile of a fused program is a full
// CompileFused.
func (p *Pipeline) Recompile(src *mat.Pipeline, dirty []int) (*Pipeline, error) {
	if p.fusedT != nil {
		return CompileFused(src, p.opts...)
	}
	if len(src.Stages) != len(p.tables) {
		return nil, fmt.Errorf("dataplane: pipeline %s: recompile of %d stages over %d compiled ones", src.Name, len(src.Stages), len(p.tables))
	}
	out := *p
	out.tables = slices.Clone(p.tables)
	out.metaIdx = maps.Clone(p.metaIdx)
	for _, si := range dirty {
		if err := src.ValidateStage(si); err != nil {
			return nil, err
		}
		if err := out.compileStage(src, si); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// metaOf returns the metadata register of a link attribute, assigning the
// next free one on first encounter.
func (p *Pipeline) metaOf(name string) int {
	if i, ok := p.metaIdx[name]; ok {
		return i
	}
	i := len(p.metaIdx)
	p.metaIdx[name] = i
	return i
}

// compileStage lowers stage si of src into p.tables[si]: the one per-stage
// body behind both Compile and Recompile.
func (p *Pipeline) compileStage(src *mat.Pipeline, si int) error {
	st := src.Stages[si]
	t := st.Table
	fields := t.Schema.Fields()
	if got := len(fields); got > 16 {
		return fmt.Errorf("dataplane: table %s has %d match columns; the key buffer supports 16", t.Name, got)
	}
	if err := checkProvenance(t, p.schema); err != nil {
		return err
	}
	cls, err := classifier.Compile(t, p.sel(t))
	if err != nil {
		return fmt.Errorf("dataplane: table %s: %w", t.Name, err)
	}
	ct := &Table{
		Name:     t.Name,
		cls:      cls,
		next:     st.Next,
		missDrop: st.MissDrop,
		counters: make([]atomic.Uint64, len(t.Entries)),
		Template: cls.Template(),
	}
	for _, fi := range fields {
		at := t.Schema[fi]
		col := matchCol{width: at.Width, meta: -1, fid: -1, slot: -1}
		if mat.IsLinkAttr(at.Name) {
			col.meta = p.metaOf(at.Name)
		} else {
			col.field = at.Name
			col.fid = packet.FieldID(at.Name)
			if p.binder != nil {
				if col.slot = p.binder.Slot(at.Name); col.slot < 0 {
					return fmt.Errorf("dataplane: table %s matches %q, not a field of schema %s", t.Name, at.Name, p.schema.Name)
				}
			}
		}
		ct.cols = append(ct.cols, col)
	}
	gotoIdx := t.Schema.Index(mat.GotoAttr)
	for _, e := range t.Entries {
		var acts []Action
		var plens []uint8
		for _, fi := range fields {
			plens = append(plens, e[fi].PLen)
		}
		ct.plens = append(ct.plens, plens)
		g := -1
		for i, at := range t.Schema {
			if at.Kind != mat.Action {
				continue
			}
			switch {
			case i == gotoIdx:
				g = int(e[i].Bits)
			case at.Name == "out":
				acts = append(acts, Action{Kind: ActOutput, Value: e[i].Bits})
			case at.Name == "mod_ttl":
				acts = append(acts, Action{Kind: ActDecTTL, Slot: ttlSlot(p.binder)})
			case mat.IsLinkAttr(at.Name):
				acts = append(acts, Action{Kind: ActSetMeta, Meta: p.metaOf(at.Name), Value: e[i].Bits})
			default:
				acts = append(acts, Action{Kind: ActSetField, Field: actionField(at.Name), Slot: actionSlot(p.binder, at.Name), Value: e[i].Bits})
			}
		}
		ct.acts = append(ct.acts, acts)
		ct.gotos = append(ct.gotos, g)
	}
	p.tables[si] = ct
	return nil
}

// actionField maps action attribute names to the packet field they write;
// the canonical mapping lives in internal/packet so the fusion compiler
// can statically resolve rewrites against downstream matches.
func actionField(name string) string { return packet.ActionField(name) }

// actionSlot resolves a rewriting action attribute to its view slot
// (-1 without a schema or for fields outside it — the view path then
// no-ops exactly like Packet.SetField on an unknown name).
func actionSlot(binder *packet.Binder, name string) int {
	if binder == nil {
		return -1
	}
	return binder.ActionSlot(name)
}

// ttlSlot resolves the dec-ttl target under a schema (-1 when the schema
// carries no ip_ttl field; dec_ttl is then a no-op on the view path).
func ttlSlot(binder *packet.Binder) int {
	if binder == nil {
		return -1
	}
	return binder.Slot(packet.FieldTTL)
}

// Trace records which packet bits a pipeline traversal consulted: for
// every header field, the maximum prefix length any visited table matched
// against. This is the wildcard ("megaflow") mask Open vSwitch computes on
// its slow path: any packet agreeing on the traced bits takes the same
// path through the pipeline.
//
// Soundness note: the per-entry mask is exact for tables whose patterns
// are pairwise disjoint per column (all tables this repository generates);
// tables with overlapping longest-prefix entries would need miss-path
// un-wildcarding as in the real OVS.
type Trace struct {
	// PLens maps canonical field names to consulted prefix lengths.
	PLens map[string]uint8
}

// NewTrace allocates an empty trace.
func NewTrace() *Trace { return &Trace{PLens: make(map[string]uint8, 8)} }

// Reset clears the trace for reuse.
func (tr *Trace) Reset() {
	for k := range tr.PLens {
		delete(tr.PLens, k)
	}
}

func (tr *Trace) add(field string, plen uint8) {
	if cur, ok := tr.PLens[field]; !ok || plen > cur {
		tr.PLens[field] = plen
	}
}

// Process runs one packet through the pipeline, mutating it according to
// the matched actions, updating per-entry counters, and returning the
// verdict. ctx must come from NewCtx on this pipeline.
func (p *Pipeline) Process(pkt *packet.Packet, ctx *Ctx) (Verdict, error) {
	if p.fusedT != nil {
		return p.processFused(pkt, ctx)
	}
	return p.process(pkt, nil, ctx, nil, nil)
}

// ProcessView runs one decoded FieldView through the pipeline — the
// schema-driven twin of Process. The pipeline must have been compiled
// with WithSchema on the view's schema; match columns and rewriting
// actions then read and write slot indices directly, so the path stays
// allocation-free for any header stack.
func (p *Pipeline) ProcessView(view *packet.FieldView, ctx *Ctx) (Verdict, error) {
	if p.schema == nil {
		return Verdict{}, fmt.Errorf("dataplane: pipeline %s was not compiled with WithSchema", p.Name)
	}
	if view.Schema() != p.schema {
		return Verdict{}, fmt.Errorf("dataplane: pipeline %s compiled for schema %s, view is %s", p.Name, p.schema.Name, view.Schema().Name)
	}
	if p.fusedT != nil {
		return p.processFusedView(view, ctx)
	}
	return p.process(nil, view, ctx, nil, nil)
}

// ProcessViewTraced is ProcessView plus megaflow wildcard tracing.
func (p *Pipeline) ProcessViewTraced(view *packet.FieldView, ctx *Ctx, tr *Trace) (Verdict, error) {
	if p.schema == nil {
		return Verdict{}, fmt.Errorf("dataplane: pipeline %s was not compiled with WithSchema", p.Name)
	}
	tr.Reset()
	return p.process(nil, view, ctx, tr, nil)
}

// ProcessTraced is Process plus megaflow wildcard tracing into tr (which
// is reset first).
func (p *Pipeline) ProcessTraced(pkt *packet.Packet, ctx *Ctx, tr *Trace) (Verdict, error) {
	tr.Reset()
	return p.process(pkt, nil, ctx, tr, nil)
}

// ProcessBatch runs a batch of packets through the pipeline on one ctx,
// writing the i-th verdict into out[i]. This is the amortized fast path the
// switch models' batch APIs build on: one bounds check up front, no
// per-packet call back into the selector machinery. out must hold at least
// len(pkts) verdicts; processing stops at the first pipeline error.
func (p *Pipeline) ProcessBatch(pkts []*packet.Packet, ctx *Ctx, out []Verdict) error {
	if len(out) < len(pkts) {
		return fmt.Errorf("dataplane: verdict buffer %d too small for batch of %d", len(out), len(pkts))
	}
	if p.fusedT != nil {
		for i, pkt := range pkts {
			v, err := p.processFused(pkt, ctx)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
	for i, pkt := range pkts {
		v, err := p.process(pkt, nil, ctx, nil, nil)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// process is the general stage loop — the single core every entry point
// (struct, view, traced, witnessed, frame-batch) funnels into. Exactly
// one of pkt and view is non-nil: the view branch reads and writes slot
// indices resolved by WithSchema, the packet branch the dense FieldID
// table. The branch is per field read but perfectly predicted within a
// run, so the default Packet path keeps its measured shape. A non-nil
// wit additionally builds the per-stage witness (ProcessExplain); the
// nil checks cost nothing on the hot path.
func (p *Pipeline) process(pkt *packet.Packet, view *packet.FieldView, ctx *Ctx, tr *Trace, wit *telemetry.Trace) (Verdict, error) {
	var t0 time.Time
	if p.tel != nil {
		t0 = time.Now()
	}
	for i := range ctx.meta {
		ctx.meta[i] = 0
	}
	var v Verdict
	cur := p.start
	for steps := 0; cur >= 0; steps++ {
		if steps > len(p.tables) {
			return v, fmt.Errorf("dataplane: pipeline %s: goto cycle", p.Name)
		}
		t := p.tables[cur]
		v.Tables++
		if p.tel != nil {
			p.tel.stages[cur].lookups.Inc()
		}
		var st telemetry.TraceStage
		if wit != nil {
			st = telemetry.TraceStage{Stage: cur, Table: t.Name, Entry: -1}
		}

		key := ctx.key[:len(t.cols)]
		miss := false
		for i := range t.cols {
			c := &t.cols[i]
			if c.meta >= 0 {
				key[i] = ctx.meta[c.meta]
				continue
			}
			var fv uint64
			var ok bool
			if view != nil {
				fv, ok = view.Get(c.slot)
			} else {
				fv, ok = pkt.FieldByID(c.fid)
			}
			if !ok {
				miss = true
				break
			}
			key[i] = fv
		}
		ei := -1
		if !miss {
			ei = t.cls.Lookup(key)
		}
		if ei < 0 {
			if p.tel != nil {
				p.tel.stages[cur].misses.Inc()
			}
			// A miss depends on every bit the table could have matched:
			// trace full column widths.
			if tr != nil {
				for i := range t.cols {
					if t.cols[i].meta < 0 {
						tr.add(t.cols[i].field, t.cols[i].width)
					}
				}
			}
			if t.missDrop {
				v.Drop = true
				if wit != nil {
					st.Join = "drop"
					wit.Stages = append(wit.Stages, st)
				}
				return p.finish(v, wit, t0), nil
			}
			if wit != nil {
				st.Join = joinName(-1, false, t.next)
				wit.Stages = append(wit.Stages, st)
			}
			cur = t.next
			continue
		}
		if p.tel != nil {
			p.tel.stages[cur].matches.Inc()
		}
		if tr != nil {
			for i := range t.cols {
				if t.cols[i].meta < 0 {
					tr.add(t.cols[i].field, t.plens[ei][i])
				}
			}
		}
		t.counters[ei].Add(1)
		if wit != nil {
			st.Entry = ei
		}
		if t.fusedTables != nil {
			// Report the logical depth of the fused-away path, not the
			// single physical lookup.
			v.Tables += int(t.fusedTables[ei]) - 1
		}
		setsMeta := false
		for _, a := range t.acts[ei] {
			if wit != nil && t.fusedStages == nil {
				st.Actions = append(st.Actions, renderAction(a))
			}
			switch a.Kind {
			case ActOutput:
				v.Port = uint16(a.Value)
			case ActSetMeta:
				ctx.meta[a.Meta] = a.Value
				setsMeta = true
			case ActDecTTL:
				if view != nil {
					if ttl, ok := view.Get(a.Slot); ok && ttl > 0 {
						view.Set(a.Slot, ttl-1)
					}
				} else if pkt.HasIPv4 && pkt.TTL > 0 {
					pkt.TTL--
				}
			case ActSetField:
				if view != nil {
					view.Set(a.Slot, a.Value)
				} else {
					pkt.SetField(a.Field, a.Value)
				}
			case ActDrop:
				v.Drop = true
			}
		}
		if wit != nil && t.fusedStages != nil {
			// A fused hit replays the pre-rendered logical witness of the
			// fused-away path, so the Theorem-1 check sees the same
			// per-table trace the interpreted pipeline would produce.
			wit.Stages = append(wit.Stages, t.fusedStages[ei]...)
			return p.finish(v, wit, t0), nil
		}
		if v.Drop {
			if wit != nil {
				st.Join = "drop"
				wit.Stages = append(wit.Stages, st)
			}
			return p.finish(v, wit, t0), nil
		}
		g := t.gotos[ei]
		if wit != nil {
			st.Join = joinName(g, setsMeta, t.next)
			wit.Stages = append(wit.Stages, st)
		}
		if g >= 0 {
			cur = g
		} else {
			cur = t.next
		}
	}
	return p.finish(v, wit, t0), nil
}

// finish closes a traversal: observe the latency histogram and seal the
// witness's verdict fields.
func (p *Pipeline) finish(v Verdict, wit *telemetry.Trace, t0 time.Time) Verdict {
	if p.tel != nil {
		p.tel.procNs.Observe(float64(time.Since(t0)))
	}
	if wit != nil {
		wit.Drop, wit.Port, wit.Tables = v.Drop, v.Port, v.Tables
	}
	return v
}

// Depth returns the number of compiled tables.
func (p *Pipeline) Depth() int { return len(p.tables) }

// Templates lists each stage's chosen classifier template, in order.
func (p *Pipeline) Templates() []string {
	out := make([]string, len(p.tables))
	for i, t := range p.tables {
		out[i] = t.Template
	}
	return out
}

// Counter returns the packet count of one entry of one stage.
func (p *Pipeline) Counter(stage, entry int) uint64 {
	return p.tables[stage].counters[entry].Load()
}

// ResetCounters zeroes all per-entry counters.
func (p *Pipeline) ResetCounters() {
	for _, t := range p.tables {
		for i := range t.counters {
			t.counters[i].Store(0)
		}
	}
}

// StageEntryCount returns the entry count of a stage (for stats readers).
func (p *Pipeline) StageEntryCount(stage int) int { return len(p.tables[stage].counters) }

// Counters returns a snapshot of all per-entry packet counters of a stage.
func (p *Pipeline) Counters(stage int) []uint64 {
	t := p.tables[stage]
	out := make([]uint64, len(t.counters))
	for i := range t.counters {
		out[i] = t.counters[i].Load()
	}
	return out
}
