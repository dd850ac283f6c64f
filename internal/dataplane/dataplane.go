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
	"manorm/internal/fdd"
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
	Meta  int // register index for ActSetMeta
	Slot  int // target field slot (set-field / dec-ttl)
	Value uint64
}

// matchCol describes where one match column's key word comes from.
type matchCol struct {
	slot  int // schema slot index, -1 for metadata
	meta  int // metadata register index, -1 for packet fields
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
	// Fused-table state, in place of acts and gotos (nil on interpreted
	// tables): per entry, the packed verdict record and the reconstructed
	// witness stages, plus the view-mutating actions the records index
	// (see CompileFused).
	fusedRules  []fusedRule
	fusedActs   []Action
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
	// fusedT/fusedFDD, set by CompileFused, route ProcessView and
	// ProcessFrames through the straight-line fused hot path (one table, no
	// metadata registers, no goto dispatch, drop on miss) with the
	// classifier call devirtualized. Traced processing still takes the
	// general loop.
	fusedT   *Table
	fusedFDD *classifier.FDD
	// logical holds, on a fused pipeline, each logical stage's entry
	// count: the shape its per-entry counters are read back in.
	logical []int
	// schema is the header schema the pipeline was compiled against (the
	// default one unless WithSchema named another): match columns and
	// rewriting actions were resolved to its slot indices at compile time.
	schema *packet.HeaderSchema
	// matchSlots lists, ascending, every slot some table matches.
	matchSlots []int
	// What Recompile needs to lower a stage the way Compile lowered the
	// others: the template selector, the options as given, the schema's
	// binder and the metadata register of every link attribute met so
	// far, numbered in first-encounter order (a Ctx holds one register per
	// name; a fused pipeline has none).
	sel     TemplateSelector
	opts    []Option
	binder  *packet.Binder
	metaIdx map[string]int
}

// Schema returns the header schema the pipeline was compiled against.
func (p *Pipeline) Schema() *packet.HeaderSchema { return p.schema }

// MatchSlots lists, in ascending order, every slot of the schema that
// some table of the pipeline matches: the fields a verdict can depend on.
// Together with their headers' presence they determine the verdict, which
// is what lets a flow cache key on them. The slice is shared; callers
// must not modify it.
func (p *Pipeline) MatchSlots() []int { return p.matchSlots }

// collectMatchSlots recomputes matchSlots from the compiled tables.
func (p *Pipeline) collectMatchSlots() {
	var slots []int
	for _, t := range p.tables {
		for _, c := range t.cols {
			if c.meta < 0 && !slices.Contains(slots, c.slot) {
				slots = append(slots, c.slot)
			}
		}
	}
	slices.Sort(slots)
	p.matchSlots = slots
}

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

// buildCompileCfg applies the options; without WithSchema the pipeline is
// compiled against the default schema.
func buildCompileCfg(opts []Option) compileCfg {
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.schema == nil {
		cfg.schema = packet.DefaultDecoder().Schema()
	}
	return cfg
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
// the pipeline processes decoded views of that schema. Compilation fails
// on attribute names outside the schema and on tables whose Provenance
// names a different schema — a VXLAN program cannot silently bind to the
// default parser. Without this option, or with a nil schema, the
// pipeline is compiled against the default schema.
func WithSchema(s *packet.HeaderSchema) Option {
	return func(c *compileCfg) { c.schema = s }
}

// checkProvenance rejects schema/table mismatches in either direction.
func checkProvenance(t *mat.Table, schema *packet.HeaderSchema) error {
	if t.Provenance != "" && t.Provenance != schema.Name {
		return fmt.Errorf("dataplane: table %s was built against schema %q, not %q", t.Name, t.Provenance, schema.Name)
	}
	return nil
}

// Ctx is per-worker scratch state: metadata registers, the key buffer and
// the view the Packet entry points fill. One Ctx per goroutine; Process
// must not be called concurrently on the same Ctx.
type Ctx struct {
	meta []uint64
	key  []uint64
	pkt  *packet.FieldView
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
	cfg := buildCompileCfg(opts)
	out := &Pipeline{
		Name: p.Name, start: p.Start, schema: cfg.schema,
		tables: make([]*Table, len(p.Stages)),
		sel:    sel, opts: opts, binder: packet.NewBinder(cfg.schema),
		metaIdx: make(map[string]int),
	}
	for si := range p.Stages {
		if err := out.compileStage(p, si); err != nil {
			return nil, err
		}
	}
	out.collectMatchSlots()
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
	out.collectMatchSlots()
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
		col := matchCol{width: at.Width, meta: -1, slot: -1}
		if mat.IsLinkAttr(at.Name) {
			col.meta = p.metaOf(at.Name)
		} else if col.slot = p.binder.Slot(at.Name); col.slot < 0 {
			return fmt.Errorf("dataplane: table %s matches %q, not a field of schema %s", t.Name, at.Name, p.schema.Name)
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
				acts = append(acts, Action{Kind: ActDecTTL, Slot: p.binder.Slot(packet.FieldTTL)})
			case mat.IsLinkAttr(at.Name):
				acts = append(acts, Action{Kind: ActSetMeta, Meta: p.metaOf(at.Name), Value: e[i].Bits})
			default:
				// A write to a field outside the schema is a no-op and
				// compiles to nothing.
				if slot := p.binder.ActionSlot(at.Name); slot >= 0 {
					acts = append(acts, Action{Kind: ActSetField, Slot: slot, Value: e[i].Bits})
				}
			}
		}
		ct.acts = append(ct.acts, acts)
		ct.gotos = append(ct.gotos, g)
	}
	p.tables[si] = ct
	return nil
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
	// consulted holds, per slot, 1 + the longest prefix any visited table
	// matched; 0 means no visited table consulted the slot.
	consulted []uint8
}

// NewTrace allocates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Reset clears the trace for reuse.
func (tr *Trace) Reset() { clear(tr.consulted) }

// PLen reports the longest prefix of a slot any visited table matched,
// and whether any visited table consulted the slot at all. A consulted
// slot with prefix 0 was wildcarded, but its header's presence still
// decided the path: a frame without it misses the table.
func (tr *Trace) PLen(slot int) (plen uint8, consulted bool) {
	if slot >= len(tr.consulted) || tr.consulted[slot] == 0 {
		return 0, false
	}
	return tr.consulted[slot] - 1, true
}

func (tr *Trace) add(slot int, plen uint8) {
	if slot >= len(tr.consulted) {
		tr.consulted = append(tr.consulted, make([]uint8, slot+1-len(tr.consulted))...)
	}
	if plen+1 > tr.consulted[slot] {
		tr.consulted[slot] = plen + 1
	}
}

// Process runs one packet through the pipeline, mutating it according to
// the matched actions, updating per-entry counters, and returning the
// verdict. ctx must come from NewCtx on this pipeline, which must be
// compiled against the default schema. It is an adapter over ProcessView:
// the packet is loaded into a default-schema view, processed, and the
// view's header rewrites are stored back into pkt.
func (p *Pipeline) Process(pkt *packet.Packet, ctx *Ctx) (Verdict, error) {
	view := ctx.packetView(pkt)
	v, err := p.ProcessView(view, ctx)
	view.StorePacket(pkt)
	return v, err
}

// packetView loads pkt into the Ctx's default-schema view.
func (ctx *Ctx) packetView(pkt *packet.Packet) *packet.FieldView {
	if ctx.pkt == nil {
		ctx.pkt = packet.DefaultDecoder().NewView()
	}
	ctx.pkt.LoadPacket(pkt)
	return ctx.pkt
}

// ProcessView runs one decoded FieldView through the pipeline, mutating
// it according to the matched actions, updating per-entry counters, and
// returning the verdict. The view must be of the schema the pipeline was
// compiled against; match columns and rewriting actions read and write
// its slots directly, so the path stays allocation-free for any header
// stack. ctx must come from NewCtx on this pipeline.
func (p *Pipeline) ProcessView(view *packet.FieldView, ctx *Ctx) (Verdict, error) {
	if err := p.checkView(view); err != nil {
		return Verdict{}, err
	}
	if p.fusedT != nil {
		return p.processFusedView(view, ctx)
	}
	return p.process(view, ctx, nil, nil)
}

// ProcessViewTraced is ProcessView plus megaflow wildcard tracing into tr
// (which is reset first).
func (p *Pipeline) ProcessViewTraced(view *packet.FieldView, ctx *Ctx, tr *Trace) (Verdict, error) {
	if err := p.checkView(view); err != nil {
		return Verdict{}, err
	}
	tr.Reset()
	return p.process(view, ctx, tr, nil)
}

// checkView rejects a view of another schema than the pipeline's.
func (p *Pipeline) checkView(view *packet.FieldView) error {
	if view.Schema() != p.schema {
		return fmt.Errorf("dataplane: pipeline %s compiled for schema %s, view is %s", p.Name, p.schema.Name, view.Schema().Name)
	}
	return nil
}

// process is the general stage loop — the single core every entry point
// (view, traced, witnessed, frame-batch, and the Packet adapters) funnels
// into. A non-nil tr traces the consulted bits (megaflow); a non-nil wit
// additionally builds the per-stage witness (ProcessExplain); the nil
// checks cost nothing on the hot path.
func (p *Pipeline) process(view *packet.FieldView, ctx *Ctx, tr *Trace, wit *telemetry.Trace) (Verdict, error) {
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
			fv, ok := view.Ready(c.slot)
			if !ok {
				if fv, ok = view.Get(c.slot); !ok {
					miss = true
					break
				}
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
						tr.add(t.cols[i].slot, t.cols[i].width)
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
				st.Join = fdd.JoinName(-1, false, t.next)
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
					tr.add(t.cols[i].slot, t.plens[ei][i])
				}
			}
		}
		t.counters[ei].Add(1)
		if t.fusedRules != nil {
			// A fused hit reports the logical depth of the fused-away path
			// and replays its pre-rendered logical witness, so the
			// Theorem-1 check sees the same per-table trace the
			// interpreted pipeline would produce.
			v = t.fusedHit(ei, view)
			if wit != nil {
				wit.Stages = append(wit.Stages, t.fusedStages[ei]...)
			}
			return p.finish(v, wit, t0), nil
		}
		if wit != nil {
			st.Entry = ei
		}
		setsMeta := false
		for _, a := range t.acts[ei] {
			if wit != nil {
				st.Actions = append(st.Actions, renderAction(a, p.schema))
			}
			switch a.Kind {
			case ActOutput:
				v.Port = uint16(a.Value)
			case ActSetMeta:
				ctx.meta[a.Meta] = a.Value
				setsMeta = true
			case ActDecTTL:
				if ttl, ok := view.Get(a.Slot); ok && ttl > 0 {
					view.Set(a.Slot, ttl-1)
				}
			case ActSetField:
				view.Set(a.Slot, a.Value)
			case ActDrop:
				v.Drop = true
			}
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
			st.Join = fdd.JoinName(g, setsMeta, t.next)
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

// ResetCounters zeroes all per-entry counters.
func (p *Pipeline) ResetCounters() {
	for _, t := range p.tables {
		for i := range t.counters {
			t.counters[i].Store(0)
		}
	}
}

// Counters returns a snapshot of all per-entry packet counters of a stage.
// A fused pipeline counts per fused rule; it reports logical stage s by
// crediting each rule's count to every entry of s its path matched.
func (p *Pipeline) Counters(stage int) []uint64 {
	if t := p.fusedT; t != nil {
		out := make([]uint64, p.logical[stage])
		for ri, steps := range t.fusedStages {
			n := t.counters[ri].Load()
			for _, st := range steps {
				if st.Stage == stage && st.Entry >= 0 {
					out[st.Entry] += n
				}
			}
		}
		return out
	}
	t := p.tables[stage]
	out := make([]uint64, len(t.counters))
	for i := range t.counters {
		out[i] = t.counters[i].Load()
	}
	return out
}
