package fabric

import (
	"context"
	"fmt"
	"strings"

	"manorm/internal/confluence"
	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// unionPipeline merges shard dumps into the logical whole: entries are
// unioned per stage (deduplicated by full row, since stages past the
// entry stage are replicated on every shard).
func unionPipeline(shards []*mat.Pipeline) (*mat.Pipeline, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fabric: union of no shards")
	}
	out := shards[0].Clone()
	for si := range out.Stages {
		t := out.Stages[si].Table
		seen := make(map[string]bool, len(t.Entries))
		for _, e := range t.Entries {
			seen[entryRowKey(t, e)] = true
		}
		for _, p := range shards[1:] {
			if len(p.Stages) != len(out.Stages) {
				return nil, fmt.Errorf("fabric: shard has %d stages, expected %d", len(p.Stages), len(out.Stages))
			}
			st := p.Stages[si].Table
			for _, e := range st.Entries {
				k := entryRowKey(st, e)
				if !seen[k] {
					seen[k] = true
					t.Entries = append(t.Entries, e.Clone())
				}
			}
		}
	}
	return out, nil
}

// MemberReport is one member's convergence verdict.
type MemberReport struct {
	Name string
	// Fingerprint is the hash of the member's universal table ("-" for
	// partition shards, whose identity only exists in union).
	Fingerprint string
	// StateOK reports that the dumped state equals the fabric's desired
	// state for this member exactly — zero lost, duplicated or spurious
	// flow-mods.
	StateOK bool
}

// Report is the outcome of a convergence check.
type Report struct {
	Mode    PlacementMode
	Members []MemberReport
	// Oracle is the single-switch oracle's fingerprint; Union the merged
	// shards' fingerprint under partitioning (equal to the replica
	// fingerprints under replication).
	Oracle string
	Union  string
	// NormalFormOK reports the headline property: every replica (or the
	// shard union) has the oracle's fingerprint.
	NormalFormOK bool
	// StateOK is the conjunction of the members' exact-state checks.
	StateOK bool
	// PacketsChecked and Divergences summarize the packet-for-packet
	// forwarding comparison against the oracle; Witness renders the first
	// divergence (both execution traces).
	PacketsChecked int
	Divergences    int
	Witness        string
}

// OK reports full convergence: the oracle's fingerprint, exact state and
// divergence-free forwarding.
func (r *Report) OK() bool {
	return r.NormalFormOK && r.StateOK && r.Divergences == 0
}

// String renders a one-line verdict.
func (r *Report) String() string {
	verdict := "CONVERGED"
	if !r.OK() {
		verdict = "DIVERGED"
	}
	return fmt.Sprintf("%s mode=%s members=%d nf_ok=%v state_ok=%v pkts=%d div=%d",
		verdict, r.Mode, len(r.Members), r.NormalFormOK, r.StateOK, r.PacketsChecked, r.Divergences)
}

// CheckConvergence pulls every member's installed rule set over the wire,
// fingerprints each (confluence.Fingerprint: the hash of its universal
// table), and proves (or refutes) that the fabric converged:
//
//   - Fingerprint: under replication every member's fingerprint must equal
//     the oracle's; under partitioning the union of the shards' must.
//   - Exact state: every dump must equal the fabric's desired state for
//     that member — zero lost and zero duplicated flow-mods.
//   - Forwarding: every packet must be forwarded by the fabric exactly as
//     the single-switch oracle forwards it — the same verdict on every
//     replica, or on exactly one owning shard (all others dropping).
//
// The oracle is the reference pipeline a fault-free single switch would
// hold (e.g. the final desired state, or an independently-churned
// reference agent's pipeline).
func (f *Fabric) CheckConvergence(ctx context.Context, oracle *mat.Pipeline, pkts []*packet.Packet) (*Report, error) {
	r := &Report{Mode: f.mode}

	oracleFP, err := confluence.Fingerprint(oracle)
	if err != nil {
		return nil, err
	}
	r.Oracle = oracleFP

	// Pull each member's installed state over its control channel, and
	// snapshot the desired states under the fabric lock.
	dumps := make([]*mat.Pipeline, len(f.members))
	desired := make([]*mat.Pipeline, len(f.members))
	f.mu.Lock()
	for i, m := range f.members {
		desired[i] = m.desired.Clone()
	}
	f.mu.Unlock()
	for i, m := range f.members {
		dump, err := m.client.DumpFlows(ctx)
		if err != nil {
			return nil, fmt.Errorf("fabric: dump %s: %w", m.Name, err)
		}
		dumps[i] = dump
	}

	r.StateOK = true
	r.NormalFormOK = true
	for i, m := range f.members {
		mr := MemberReport{Name: m.Name, Fingerprint: "-"}
		gotState, err := confluence.CanonicalState(dumps[i])
		if err != nil {
			return nil, err
		}
		wantState, err := confluence.CanonicalState(desired[i])
		if err != nil {
			return nil, err
		}
		mr.StateOK = gotState == wantState
		if !mr.StateOK {
			r.StateOK = false
		}
		if f.mode == Replicate {
			fp, err := confluence.Fingerprint(dumps[i])
			if err != nil {
				return nil, fmt.Errorf("fabric: fingerprint %s: %w", m.Name, err)
			}
			mr.Fingerprint = fp
			if fp != oracleFP {
				r.NormalFormOK = false
			}
		}
		r.Members = append(r.Members, mr)
	}
	if f.mode == Partition {
		union, err := unionPipeline(dumps)
		if err != nil {
			return nil, err
		}
		r.Union, err = confluence.Fingerprint(union)
		if err != nil {
			return nil, fmt.Errorf("fabric: union fingerprint: %w", err)
		}
		r.NormalFormOK = r.Union == oracleFP
	} else if len(dumps) > 0 {
		r.Union = r.Members[0].Fingerprint
	}

	if len(pkts) > 0 {
		if err := f.checkForwarding(oracle, dumps, pkts, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkForwarding replays pkts through the compiled oracle and every
// compiled dump, comparing verdicts packet for packet.
func (f *Fabric) checkForwarding(oracle *mat.Pipeline, dumps []*mat.Pipeline, pkts []*packet.Packet, r *Report) error {
	op, err := dataplane.Compile(oracle, dataplane.AutoTemplates)
	if err != nil {
		return fmt.Errorf("fabric: compile oracle: %w", err)
	}
	octx := op.NewCtx()
	compiled := make([]*dataplane.Pipeline, len(dumps))
	ctxs := make([]*dataplane.Ctx, len(dumps))
	for i, d := range dumps {
		compiled[i], err = dataplane.Compile(d, dataplane.AutoTemplates)
		if err != nil {
			return fmt.Errorf("fabric: compile %s dump: %w", f.members[i].Name, err)
		}
		ctxs[i] = compiled[i].NewCtx()
	}

	view := packet.DefaultDecoder().NewView()
	for pi, pkt := range pkts {
		view.LoadPacket(pkt)
		ov, owit, err := op.ProcessExplainView(view, octx)
		if err != nil {
			return fmt.Errorf("fabric: oracle packet %d: %w", pi, err)
		}
		forwarders := 0
		diverged := false
		var detail strings.Builder
		for i := range compiled {
			view.LoadPacket(pkt)
			mv, mwit, err := compiled[i].ProcessExplainView(view, ctxs[i])
			if err != nil {
				return fmt.Errorf("fabric: %s packet %d: %w", f.members[i].Name, pi, err)
			}
			switch f.mode {
			case Replicate:
				if mv.Drop != ov.Drop || (!ov.Drop && mv.Port != ov.Port) {
					diverged = true
					fmt.Fprintf(&detail, "%s: got %s, oracle %s\n  member %s\n  oracle %s\n",
						f.members[i].Name, renderVerdict(mv.Drop, mv.Port), renderVerdict(ov.Drop, ov.Port),
						renderTrace(mwit), renderTrace(owit))
				}
			case Partition:
				if !mv.Drop {
					forwarders++
					if ov.Drop || mv.Port != ov.Port {
						diverged = true
						fmt.Fprintf(&detail, "%s forwarded %s, oracle %s\n",
							f.members[i].Name, renderVerdict(mv.Drop, mv.Port), renderVerdict(ov.Drop, ov.Port))
					}
				}
			}
		}
		if f.mode == Partition {
			if ov.Drop && forwarders != 0 {
				diverged = true
				fmt.Fprintf(&detail, "%d shards forwarded a packet the oracle drops", forwarders)
			}
			if !ov.Drop && forwarders != 1 {
				diverged = true
				fmt.Fprintf(&detail, "%d shards own a packet the oracle forwards to %d (want exactly 1)", forwarders, ov.Port)
			}
		}
		r.PacketsChecked++
		if diverged {
			r.Divergences++
			if r.Witness == "" {
				r.Witness = fmt.Sprintf("packet %d: %s", pi, detail.String())
			}
		}
	}
	return nil
}

func renderVerdict(drop bool, port uint16) string {
	if drop {
		return "drop"
	}
	return fmt.Sprintf("out=%d", port)
}

// renderTrace compacts a forwarding witness into one line:
// table[entry](actions)-join → … → verdict.
func renderTrace(wit *telemetry.Trace) string {
	var b strings.Builder
	for i, st := range wit.Stages {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s[%d]", st.Table, st.Entry)
		if len(st.Actions) > 0 {
			fmt.Fprintf(&b, "(%s)", strings.Join(st.Actions, ","))
		}
		fmt.Fprintf(&b, "-%s", st.Join)
	}
	fmt.Fprintf(&b, " => %s", renderVerdict(wit.Drop, wit.Port))
	return b.String()
}
