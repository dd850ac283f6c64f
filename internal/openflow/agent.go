package openflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"manorm/internal/mat"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
)

// Agent is the switch-side protocol endpoint: it owns the logical
// match-action pipeline, applies flow-mods to it, and (re)installs it into
// the backing switch model. Modifications take effect at the next barrier,
// giving the barrier the OpenFlow commit semantics the reactiveness
// experiment counts on.
//
// The agent degrades gracefully under a faulty channel: pipeline state
// lives in the Agent, not the session, so a disconnect (or, by default, a
// malformed frame) ends only the connection — the switch keeps forwarding
// on its last committed tables, and a reattached controller resynchronizes
// by resending unacknowledged flow-mods, which the agent deduplicates by
// xid. Each barrier reply carries the receipt list of flow-mod xids
// covered since the previous barrier, closing the loop for clients on
// lossy channels.
type Agent struct {
	mu sync.Mutex
	sw switches.Switch
	// pipeline is the logical (control-plane-visible) pipeline state.
	pipeline *mat.Pipeline
	// pending maps every stage touched since the last successful commit to
	// the entry indices added there. FlowAdd is the only command that can
	// create an overlap (FlowModify keeps the match cells, FlowDelete only
	// removes regions), and committed state is unambiguous, so these rows
	// are all a barrier has to check and these stages all it has to
	// recompile. A rejected commit clears nothing: the offending rows are
	// still in the pipeline, and the next barrier must reject them again.
	pending map[int][]int
	// ModsApplied counts flow-mods accepted since creation — the
	// control-plane churn metric of §2/§5.
	ModsApplied int

	strictDecode bool
	// applied records flow-mod xids already applied, so resent mods
	// (after drops or reconnects) are acknowledged without re-applying.
	applied map[uint32]bool
	// epochAcks accumulates the xids covered since the last barrier
	// reply — the receipt list shipped in the next TypeBarrierReply.
	epochAcks []uint32

	// DupsSkipped counts deduplicated flow-mod re-deliveries,
	// DecodeErrors malformed frames survived, Sessions control sessions
	// served. Read with atomic.LoadInt64.
	DupsSkipped  int64
	DecodeErrors int64
	Sessions     int64
}

// maxAcksPerReply bounds the barrier-reply receipt list; overflow stays
// queued for the next barrier (the client resends unacked mods, which
// dedup absorbs).
const maxAcksPerReply = 1 << 15

// NewAgent creates an agent fronting a switch model with an initial
// pipeline. The pipeline is vetted like a commit: an ambiguous start
// program is refused here instead of failing every later barrier, which
// is also what lets those barriers check only the rows they add.
func NewAgent(sw switches.Switch, p *mat.Pipeline, opts ...AgentOption) (*Agent, error) {
	a := &Agent{sw: sw, pipeline: p, applied: make(map[uint32]bool), pending: make(map[int][]int)}
	for _, o := range opts {
		o(a)
	}
	if err := p.Validate(); err != nil {
		return nil, opErr("commit", 0, -1, err)
	}
	for si := range p.Stages {
		if err := ambiguityErr(si, p.Stages[si].Table.AmbiguousPairs()); err != nil {
			return nil, err
		}
	}
	if err := sw.Install(p); err != nil {
		return nil, err
	}
	return a, nil
}

// Pipeline returns the logical pipeline (for inspection in tests).
func (a *Agent) Pipeline() *mat.Pipeline {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pipeline
}

// Serve handles control messages on the connection until it closes, the
// context is canceled, or (under WithStrictDecode) a malformed frame
// arrives. It is the switch's control-channel main loop; the agent may
// serve any number of sessions sequentially or concurrently.
func (a *Agent) Serve(ctx context.Context, rw net.Conn) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c := NewConn(rw)
	atomic.AddInt64(&a.Sessions, 1)
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	if err := c.Send(&Message{Type: TypeHello}); err != nil {
		return err
	}
	for {
		m, err := c.Recv()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			if (errors.Is(err, ErrBadFrame) || errors.Is(err, ErrUnsupported)) && !c.Broken() {
				// The frame was consumed whole; the stream is still
				// synchronized. Report and keep serving unless strict.
				atomic.AddInt64(&a.DecodeErrors, 1)
				if !a.strictDecode {
					_ = c.Send(&Message{Type: TypeError, XID: recvXID(err), Err: err.Error()})
					continue
				}
			}
			return err
		}
		if err := a.handle(c, m); err != nil {
			return err
		}
	}
}

func (a *Agent) handle(c *Conn, m *Message) error {
	switch m.Type {
	case TypeHello:
		return nil
	case TypeEchoRequest:
		return c.Send(&Message{Type: TypeEchoReply, XID: m.XID, Payload: m.Payload})
	case TypeFlowMod:
		applied, err := a.applyFlowModXID(m.XID, m.Flow)
		if err != nil {
			return c.Send(&Message{Type: TypeError, XID: m.XID, Err: err.Error()})
		}
		if !applied {
			atomic.AddInt64(&a.DupsSkipped, 1)
		}
		return nil
	case TypeBarrierRequest:
		if err := a.Commit(); err != nil {
			return c.Send(&Message{Type: TypeError, XID: m.XID, Err: err.Error()})
		}
		return c.Send(&Message{Type: TypeBarrierReply, XID: m.XID, Payload: a.takeEpochAcks()})
	case TypeStatsRequest:
		stats, err := a.ReadStats(int(m.Stats.TableID))
		if err != nil {
			return c.Send(&Message{Type: TypeError, XID: m.XID, Err: err.Error()})
		}
		return c.Send(&Message{Type: TypeStatsReply, XID: m.XID, Stats: stats})
	case TypeFlowDumpRequest:
		dump, err := a.DumpPipeline()
		if err != nil {
			return c.Send(&Message{Type: TypeError, XID: m.XID, Err: err.Error()})
		}
		return c.Send(&Message{Type: TypeFlowDumpReply, XID: m.XID, Payload: dump})
	default:
		return c.Send(&Message{Type: TypeError, XID: m.XID, Err: unsupported("unhandled type %s", m.Type).Error()})
	}
}

// applyFlowModXID applies one flow-mod with xid deduplication: a
// re-delivered xid is acknowledged (it joins the barrier receipt list)
// but not re-applied, making client resends idempotent. xid 0 bypasses
// dedup.
func (a *Agent) applyFlowModXID(xid uint32, f *FlowMod) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if xid != 0 && a.applied[xid] {
		a.epochAcks = append(a.epochAcks, xid)
		return false, nil
	}
	if err := a.applyLocked(f); err != nil {
		return false, err
	}
	if xid != 0 {
		a.applied[xid] = true
		a.pruneAppliedLocked(xid)
		a.epochAcks = append(a.epochAcks, xid)
	}
	return true, nil
}

// pruneAppliedLocked bounds the dedup map: once it exceeds 64k entries,
// xids far behind the current one are forgotten (a client never resends a
// mod that old — resend queues drain at every successful barrier).
func (a *Agent) pruneAppliedLocked(latest uint32) {
	if len(a.applied) <= 1<<16 {
		return
	}
	horizon := latest - 1<<15
	for x := range a.applied {
		if x < horizon {
			delete(a.applied, x)
		}
	}
}

// takeEpochAcks drains (up to maxAcksPerReply of) the receipt list into
// wire format.
func (a *Agent) takeEpochAcks() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.epochAcks)
	if n > maxAcksPerReply {
		n = maxAcksPerReply
	}
	b := appendAckXIDs(nil, a.epochAcks[:n])
	a.epochAcks = append(a.epochAcks[:0], a.epochAcks[n:]...)
	return b
}

// ApplyFlowMod applies one modification to the logical pipeline. The
// change is installed into the switch at the next Commit (barrier).
func (a *Agent) ApplyFlowMod(f *FlowMod) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applyLocked(f)
}

// DumpPipeline serializes the logical pipeline (including flow-mods
// awaiting the next barrier) into the flow-dump wire payload.
func (a *Agent) DumpPipeline() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, err := json.Marshal(a.pipeline)
	if err != nil {
		return nil, opErr("flow-dump", 0, -1, err)
	}
	if len(b)+8 > maxMessage {
		return nil, opErr("flow-dump", 0, -1, fmt.Errorf("%w: pipeline dump %d bytes exceeds frame limit", ErrUnsupported, len(b)))
	}
	return b, nil
}

func (a *Agent) applyLocked(f *FlowMod) error {
	idx, err := applyFlowMod(a.pipeline, f)
	if err != nil {
		return err
	}
	a.ModsApplied++
	stage := int(f.TableID)
	added := a.pending[stage]
	switch f.Command {
	case FlowAdd:
		added = append(added, idx)
	case FlowDelete:
		// The entries behind the deleted one moved down a slot.
		kept := added[:0]
		for _, r := range added {
			if r == idx {
				continue
			}
			if r > idx {
				r--
			}
			kept = append(kept, r)
		}
		added = kept
	}
	a.pending[stage] = added
	return nil
}

// ApplyToPipeline applies one flow-mod to a logical pipeline in place —
// the state transition an agent performs per accepted flow-mod, exported
// so controllers (the fabric) can track each switch's desired state with
// exactly the switch's own semantics.
func ApplyToPipeline(p *mat.Pipeline, f *FlowMod) error {
	_, err := applyFlowMod(p, f)
	return err
}

// applyFlowMod is ApplyToPipeline returning the index of the entry the
// flow-mod added, rewrote or removed.
func applyFlowMod(p *mat.Pipeline, f *FlowMod) (int, error) {
	if f == nil {
		return -1, badFrame("nil flow-mod")
	}
	if int(f.TableID) >= len(p.Stages) {
		return -1, opErr("flow-mod", 0, int(f.TableID), fmt.Errorf("%w: table %d out of range", ErrUnsupported, f.TableID))
	}
	t := p.Stages[f.TableID].Table

	match, err := matchRow(t, f.Match)
	if err != nil {
		return -1, opErr("flow-mod", 0, int(f.TableID), err)
	}
	idx := findEntry(t, match)

	switch f.Command {
	case FlowAdd:
		if idx >= 0 {
			return -1, opErr("flow-mod", 0, int(f.TableID), fmt.Errorf("duplicate entry in table %d", f.TableID))
		}
		row, err := fullRow(t, match, f.Actions)
		if err != nil {
			return -1, opErr("flow-mod", 0, int(f.TableID), err)
		}
		idx = len(t.Entries)
		t.Entries = append(t.Entries, row)
	case FlowModify:
		if idx < 0 {
			return -1, opErr("flow-mod", 0, int(f.TableID), fmt.Errorf("modify: no such entry in table %d", f.TableID))
		}
		row, err := fullRow(t, match, f.Actions)
		if err != nil {
			return -1, opErr("flow-mod", 0, int(f.TableID), err)
		}
		t.Entries[idx] = row
	case FlowDelete:
		if idx < 0 {
			return -1, opErr("flow-mod", 0, int(f.TableID), fmt.Errorf("delete: no such entry in table %d", f.TableID))
		}
		t.Entries = append(t.Entries[:idx], t.Entries[idx+1:]...)
	default:
		return -1, opErr("flow-mod", 0, int(f.TableID), fmt.Errorf("%w: unknown flow-mod command %d", ErrUnsupported, f.Command))
	}
	return idx, nil
}

// Commit brings the switch up to the logical pipeline — the barrier
// semantics — at a cost set by what the flow-mods since the last commit
// touched, not by the size of the program: only the touched stages are
// re-validated and recompiled, and only the rows added to them are checked
// for ambiguity. The verdict is the one a check of the whole pipeline
// gives, because everything committed earlier already passed it.
func (a *Agent) Commit() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) == 0 {
		return nil
	}
	dirty := make([]int, 0, len(a.pending))
	for si := range a.pending {
		dirty = append(dirty, si)
	}
	sort.Ints(dirty)
	for _, si := range dirty {
		if err := a.pipeline.ValidateStage(si); err != nil {
			return opErr("commit", 0, -1, err)
		}
	}
	// Install-time classifier validation: a flow-mod batch must not
	// create entries whose regions overlap at equal specificity — such
	// packets would have no most-specific winner.
	for _, si := range dirty {
		if err := ambiguityErr(si, a.pipeline.Stages[si].Table.AmbiguousWith(a.pending[si])); err != nil {
			return err
		}
	}
	if err := a.sw.Update(a.pipeline, dirty); err != nil {
		return opErr("commit", 0, -1, err)
	}
	a.sw.ApplyMods(1)
	clear(a.pending)
	return nil
}

// ambiguityErr turns a stage's ambiguous pairs into the commit rejection.
func ambiguityErr(stage int, amb [][2]int) error {
	if len(amb) == 0 {
		return nil
	}
	return opErr("commit", 0, stage, fmt.Errorf("table %d has ambiguous entries %v; rejecting commit", stage, amb[0]))
}

// Stats reports the agent's control-plane telemetry (telemetry.Provider):
// flow-mod churn, dedup and decode counters, session count, and — nested
// under "switch" — the fronted switch model's own snapshot.
func (a *Agent) Stats() telemetry.Snapshot {
	a.mu.Lock()
	mods := uint64(a.ModsApplied)
	sw := a.sw
	a.mu.Unlock()
	snap := telemetry.Snapshot{
		Name: "openflow_agent",
		Counters: map[string]uint64{
			"mods_applied":  mods,
			"dups_skipped":  uint64(atomic.LoadInt64(&a.DupsSkipped)),
			"decode_errors": uint64(atomic.LoadInt64(&a.DecodeErrors)),
			"sessions":      uint64(atomic.LoadInt64(&a.Sessions)),
		},
	}
	if sw != nil {
		snap.Providers = map[string]telemetry.Snapshot{"switch": sw.Stats()}
	}
	return snap
}

// ReadStats snapshots one table's per-entry counters.
func (a *Agent) ReadStats(table int) (*Stats, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if table >= len(a.pipeline.Stages) || table < 0 {
		return nil, opErr("stats", 0, table, fmt.Errorf("%w: table %d out of range", ErrUnsupported, table))
	}
	return &Stats{TableID: uint8(table), Counts: a.sw.Counters(table)}, nil
}

// matchRow builds the match-cell projection of a flow-mod against a
// table's schema: absent fields are wildcards.
func matchRow(t *mat.Table, fields []MatchField) ([]mat.Cell, error) {
	cells := make([]mat.Cell, len(t.Schema))
	for i := range cells {
		cells[i] = mat.Any()
	}
	for _, f := range fields {
		i := t.Schema.Index(f.Name)
		if i < 0 {
			return nil, fmt.Errorf("table %s has no match field %q", t.Name, f.Name)
		}
		if t.Schema[i].Kind != mat.Field {
			return nil, fmt.Errorf("attribute %q is not a match field", f.Name)
		}
		cells[i] = f.Cell.Canonical(t.Schema[i].Width)
	}
	return cells, nil
}

// findEntry locates the entry with exactly the given match cells.
func findEntry(t *mat.Table, match []mat.Cell) int {
	fields := t.Schema.Fields()
	for ei, e := range t.Entries {
		same := true
		for _, fi := range fields {
			if e[fi] != match[fi] {
				same = false
				break
			}
		}
		if same {
			return ei
		}
	}
	return -1
}

// fullRow combines match cells with action values into a complete entry;
// every action attribute of the schema must be provided.
func fullRow(t *mat.Table, match []mat.Cell, actions []ActionField) (mat.Entry, error) {
	row := make(mat.Entry, len(t.Schema))
	copy(row, match)
	provided := make(map[int]bool)
	for _, af := range actions {
		i := t.Schema.Index(af.Name)
		if i < 0 {
			return nil, fmt.Errorf("table %s has no action %q", t.Name, af.Name)
		}
		if t.Schema[i].Kind != mat.Action {
			return nil, fmt.Errorf("attribute %q is not an action", af.Name)
		}
		row[i] = mat.Exact(af.Value, t.Schema[i].Width)
		provided[i] = true
	}
	for _, ai := range t.Schema.Actions() {
		if !provided[ai] {
			return nil, fmt.Errorf("action %q missing from flow-mod", t.Schema[ai].Name)
		}
	}
	return row, nil
}
