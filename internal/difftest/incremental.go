package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/switches"
)

// IncrementalRun counts the barriers one representation on one model went
// through, so a caller can tell a clean run from one that never reached a
// rejected barrier.
type IncrementalRun struct {
	Variant, Model               string
	Barriers, Accepted, Rejected int
}

// ExecuteIncremental cross-checks the O(delta) barrier against its
// from-scratch reference. The program's universal table and its fully
// normalized metadata and goto pipelines (where normalization finds
// structure) are each put behind an openflow.Agent on every model of
// cfg.Models and driven through steps rounds of seeded add / modify /
// delete batches — including batches the agent must reject, an unrelated
// batch behind a rejected one, and the deletes that repair it. After
// every barrier
//
//   - the commit's accept/reject verdict must be the one validating the
//     whole logical pipeline and running AmbiguousPairs over every stage
//     gives;
//   - the incrementally updated switch must forward a packet sample (the
//     program's batch plus packets aimed at the rows the batch touched),
//     cold and cache-warm, exactly like a twin freshly Installed with the
//     last accepted state;
//   - both must report the same per-stage entry counts and templates.
//
// Any disagreement is a KindIncremental divergence.
func ExecuteIncremental(p *Program, steps int, cfg ExecConfig) ([]Divergence, []IncrementalRun, error) {
	if p == nil || p.Table == nil {
		return nil, nil, fmt.Errorf("difftest: nil program")
	}
	cfg = cfg.withDefaults()
	vs, err := core.Variants(p.Table, cfg.Target)
	if err != nil {
		return []Divergence{{Kind: KindConstruct, Variant: "variants", Packet: -1, Detail: err.Error()}}, nil, nil
	}
	var divs []Divergence
	var runs []IncrementalRun
	for _, v := range vs {
		if v.Name != "universal" && !strings.HasSuffix(v.Name, "-metadata") && !strings.HasSuffix(v.Name, "-goto") {
			continue
		}
		for mi, model := range cfg.Models {
			run := &incrementalRun{
				stats: IncrementalRun{Variant: v.Name, Model: model}, base: p.Packets,
				rng: rand.New(rand.NewSource(p.Seed*131 + int64(mi))),
			}
			if err := run.drive(v.Pipeline.Clone(), steps); err != nil {
				return nil, nil, err
			}
			runs = append(runs, run.stats)
			divs = append(divs, run.divs...)
			if len(divs) >= cfg.MaxDivergences {
				return divs, runs, nil
			}
		}
	}
	return divs, runs, nil
}

// incrementalRun is one representation on one model.
type incrementalRun struct {
	stats     IncrementalRun
	base      []*packet.Packet
	rng       *rand.Rand
	sw        switches.Switch
	worker    switches.Worker // lives across barriers, caches and all
	agent     *openflow.Agent
	live      *mat.Pipeline // the agent's logical pipeline
	committed *mat.Pipeline // its state at the last accepted barrier
	planted   []plantedRow  // since the last repair
	divs      []Divergence
}

func (r *incrementalRun) diverge(format string, args ...any) {
	r.divs = append(r.divs, Divergence{
		Kind: KindIncremental, Variant: r.stats.Variant, Model: r.stats.Model, Packet: -1,
		Detail: fmt.Sprintf(format, args...),
	})
}

func (r *incrementalRun) drive(live *mat.Pipeline, steps int) error {
	var err error
	if r.sw, err = switches.New(r.stats.Model); err != nil {
		return err
	}
	if r.agent, err = openflow.NewAgent(r.sw, live); err != nil {
		return fmt.Errorf("difftest: %s@%s: %w", r.stats.Variant, r.stats.Model, err)
	}
	r.worker = r.sw.NewWorker()
	r.live, r.committed = live, live.Clone()
	for step := 0; step < steps && len(r.divs) == 0; step++ {
		stage := r.rng.Intn(len(live.Stages))
		batch := r.plant(stage)
		if batch == nil {
			batch = r.stageBatch(stage)
		}
		if !r.barrier(fmt.Sprintf("step %d", step), batch) {
			// Rejected. The offending rows are still in the logical
			// pipeline, so the barrier behind a batch that has nothing to
			// do with them must not pass because the agent forgot them. (It
			// may pass because the batch deleted the committed row they
			// collide with: the full check decides.)
			other := (stage + 1) % len(live.Stages)
			r.barrier(fmt.Sprintf("step %d, unrelated batch behind the rejected one", step), r.stageBatch(other))
		}
		if fix := r.repair(); len(fix) > 0 {
			r.barrier(fmt.Sprintf("step %d, repair", step), fix)
		}
	}
	return nil
}

// barrier applies the batch (individually rejected mods leave the state
// untouched), commits, and runs the three comparisons. It reports whether
// the commit was accepted.
func (r *incrementalRun) barrier(when string, batch []openflow.FlowMod) bool {
	for i := range batch {
		_ = r.agent.ApplyFlowMod(&batch[i])
	}
	got, want := r.agent.Commit(), fullVerdict(r.live)
	r.stats.Barriers++
	if (got == nil) != (want == nil) {
		r.diverge("%s: commit returned %v, the full check %v", when, got, want)
		return got == nil
	}
	if got == nil {
		r.stats.Accepted++
		r.committed = r.live.Clone()
	} else {
		r.stats.Rejected++
	}

	twin, err := switches.New(r.stats.Model)
	if err == nil {
		err = twin.Install(r.committed)
	}
	if err != nil {
		r.diverge("%s: fresh install of the committed state: %v", when, err)
		return got == nil
	}
	frames := r.sample(batch)
	wi, wt := r.worker, twin.NewWorker()
	vi, vt := make([]dataplane.Verdict, len(frames)), make([]dataplane.Verdict, len(frames))
	for _, pass := range []string{"cold", "warm"} {
		ei, et := wi.ProcessBatch(frames, vi), wt.ProcessBatch(frames, vt)
		if (ei == nil) != (et == nil) {
			r.diverge("%s: %s pass: incremental switch returned %v, fresh install %v", when, pass, ei, et)
			break
		}
		if ei != nil {
			break // both refuse the batch alike (a goto cycle a flow-mod closed)
		}
		for i := range frames {
			if vi[i] != vt[i] {
				r.diverge("%s: %s pass, frame %d: incremental switch %+v, fresh install %+v", when, pass, i, vi[i], vt[i])
				break
			}
		}
	}
	if si, st := shapeOf(r.sw, len(r.live.Stages)), shapeOf(twin, len(r.live.Stages)); si != st {
		r.diverge("%s: incremental switch reports %s, fresh install %s", when, si, st)
	}
	return got == nil
}

// fullVerdict is the from-scratch admission check the touched-only commit
// must agree with.
func fullVerdict(p *mat.Pipeline) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for si, st := range p.Stages {
		if amb := st.Table.AmbiguousPairs(); len(amb) > 0 {
			return fmt.Errorf("stage %d: ambiguous entries %v", si, amb[0])
		}
	}
	return nil
}

// shapeOf renders what a model reports about its installed program:
// per-stage entry counts for every model, ESwitch's templates, NoviFlow's
// TCAM gauges.
func shapeOf(sw switches.Switch, stages int) string {
	var b strings.Builder
	for si := 0; si < stages; si++ {
		fmt.Fprintf(&b, "stage%d=%d ", si, len(sw.Counters(si)))
	}
	if t, ok := sw.(interface{ Templates() []string }); ok {
		fmt.Fprintf(&b, "templates=%v ", t.Templates())
	}
	gauges := sw.Stats().Gauges
	names := make([]string, 0, len(gauges))
	for name := range gauges {
		if strings.HasPrefix(name, "tcam_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%v ", name, gauges[name])
	}
	return b.String()
}

// stageBatch draws a batch against one stage with the confluence
// generator — from the committed state, so that planted rows a rejected
// barrier left pending never lend their cells to a row that stays: the
// generators' disjoint-or-equal column discipline is what keeps the OVS
// megaflow cache exact, and it has to hold for every state a switch
// forwards on with caches that an earlier barrier's packets warmed.
// Most goto targets and metadata tags are then reset to values the column
// already carries: a random 16-bit goto target is out of range nearly
// always, and every barrier would be a rejection.
func (r *incrementalRun) stageBatch(stage int) []openflow.FlowMod {
	t := r.committed.Stages[stage].Table
	batch := genBatch(r.rng, t, batchPools(r.rng, t))
	for i := range batch {
		batch[i].TableID = uint8(stage)
		for k := range batch[i].Actions {
			a := &batch[i].Actions[k]
			if mat.IsLinkAttr(a.Name) && len(t.Entries) > 0 && r.rng.Float64() < 0.9 {
				a.Value = t.Entries[r.rng.Intn(len(t.Entries))][t.Schema.Index(a.Name)].Bits
			}
		}
	}
	return batch
}

// plant returns, three times in ten where the stage's table admits it, a
// batch that creates an equal-specificity overlap around an installed row.
// Where some column's prefix can grow, one added row that gives up the
// last bit of one column and takes one more bit of another overlaps the
// installed row itself; otherwise two added rows that each give up the
// last bit of a different column overlap each other. A table with fewer
// than two constrained columns admits neither. The rows are remembered:
// repair deletes them again.
func (r *incrementalRun) plant(stage int) []openflow.FlowMod {
	t := r.live.Stages[stage].Table
	if len(t.Entries) == 0 || r.rng.Float64() >= 0.3 {
		return nil
	}
	e := t.Entries[r.rng.Intn(len(t.Entries))]
	var shrinkable, growable []int
	for _, fi := range t.Schema.Fields() {
		if e[fi].PLen > 0 {
			shrinkable = append(shrinkable, fi)
		}
		if e[fi].PLen < t.Schema[fi].Width {
			growable = append(growable, fi)
		}
	}
	r.rng.Shuffle(len(shrinkable), func(i, j int) { shrinkable[i], shrinkable[j] = shrinkable[j], shrinkable[i] })
	shrink := func(row mat.Entry, fi int) {
		row[fi] = mat.Prefix(row[fi].Bits, row[fi].PLen-1, t.Schema[fi].Width)
	}
	var rows []mat.Entry
	if len(growable) > 0 && r.rng.Intn(2) == 0 {
		grow := growable[r.rng.Intn(len(growable))]
		for _, fi := range shrinkable {
			if fi != grow {
				row := e.Clone()
				shrink(row, fi)
				row[grow].PLen++
				rows = append(rows, row)
				break
			}
		}
	}
	if rows == nil && len(shrinkable) >= 2 {
		a, b := e.Clone(), e.Clone()
		shrink(a, shrinkable[0])
		shrink(b, shrinkable[1])
		rows = append(rows, a, b)
	}
	var mods []openflow.FlowMod
	for _, row := range rows {
		r.planted = append(r.planted, plantedRow{stage, row})
		mods = append(mods, rowMod(openflow.FlowAdd, t, stage, row))
	}
	return mods
}

// plantedRow is a row plant added, and where.
type plantedRow struct {
	stage int
	row   mat.Entry
}

// rowMod builds the flow-mod that adds or deletes exactly this row.
func rowMod(cmd openflow.FlowModCommand, t *mat.Table, stage int, row mat.Entry) openflow.FlowMod {
	mod := openflow.FlowMod{Command: cmd, TableID: uint8(stage)}
	for i, a := range t.Schema {
		switch {
		case a.Kind == mat.Field:
			mod.Match = append(mod.Match, openflow.MatchField{Name: a.Name, Width: a.Width, Cell: row[i]})
		case cmd != openflow.FlowDelete:
			mod.Actions = append(mod.Actions, openflow.ActionField{Name: a.Name, Width: a.Width, Value: row[i].Bits})
		}
	}
	return mod
}

// repair plans the deletes that make the logical pipeline committable
// again and bring it back inside the generators' column discipline: every
// row with an out-of-range goto target, and every planted row (one can
// even get committed, when the unrelated batch happened to delete the row
// it collided with; the delete of one that never went in is refused).
func (r *incrementalRun) repair() []openflow.FlowMod {
	var mods []openflow.FlowMod
	for si, st := range r.live.Stages {
		g := st.Table.Schema.Index(mat.GotoAttr)
		for _, e := range st.Table.Entries {
			if g >= 0 && e[g].Bits >= uint64(len(r.live.Stages)) {
				mods = append(mods, rowMod(openflow.FlowDelete, st.Table, si, e))
			}
		}
	}
	for _, p := range r.planted {
		mods = append(mods, rowMod(openflow.FlowDelete, r.live.Stages[p.stage].Table, p.stage, p.row))
	}
	r.planted = nil
	return mods
}

// sample is the packet batch a barrier is checked on: the program's own
// packets, and for every flow-mod of the batch a copy of one of them moved
// into the mod's match region.
func (r *incrementalRun) sample(batch []openflow.FlowMod) [][]byte {
	frames := make([][]byte, 0, len(r.base)+len(batch))
	for _, pkt := range r.base {
		frames = append(frames, pkt.Marshal(nil))
	}
	for _, mod := range batch {
		if len(r.base) == 0 {
			break
		}
		pkt := *r.base[r.rng.Intn(len(r.base))]
		for _, m := range mod.Match {
			free := mask(m.Width) &^ prefixMask(m.Cell.PLen, m.Width)
			pkt.SetField(m.Name, m.Cell.Bits|r.rng.Uint64()&free)
		}
		frames = append(frames, pkt.Marshal(nil))
	}
	return frames
}
