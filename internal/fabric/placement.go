// Package fabric coordinates a set of agent-backed switches as one
// logical match-action program: a normalized pipeline is placed across N
// members (replicated, or with its first stage partitioned), updates are
// pushed under an epoch-stamped protocol with quorum barriers, members
// that fall behind are resynchronized by full state transfer, and a
// convergence checker proves — by denormalizing each member's installed
// rule set — that every replica holds the oracle's universal table and
// forwards packet-for-packet like the single-switch oracle.
//
// The fabric is the operational payoff of the paper's Theorem 1: because
// normalization and denormalization preserve semantics, "all replicas
// hold the same program" is decidable by pulling each switch's rules,
// denormalizing them, and comparing fingerprints of the universal tables
// — no per-update bookkeeping of what should have arrived is needed.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"manorm/internal/mat"
	"manorm/internal/openflow"
)

// PlacementMode selects how a pipeline is spread across fabric members.
type PlacementMode string

const (
	// Replicate installs the full pipeline on every member; every flow-mod
	// goes to every member and all replicas must converge to the oracle's
	// fingerprint.
	Replicate PlacementMode = "replicate"
	// Partition shards the first stage's entries across members by a hash
	// of their match key; later stages are replicated (they are the shared
	// per-service tables every shard may reach). Flow-mods addressing the
	// first stage route to the owning member; the union of all shards must
	// equal the oracle.
	Partition PlacementMode = "partition"
)

// Place computes the per-member pipelines for installing src on n members.
// The placement is a pure function of (src, n, mode): the fabric and the
// switch-provisioning harness call it independently and agree.
func Place(src *mat.Pipeline, n int, mode PlacementMode) ([]*mat.Pipeline, error) {
	if n < 1 {
		return nil, fmt.Errorf("fabric: need at least 1 member, got %d", n)
	}
	if err := src.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: place: %w", err)
	}
	out := make([]*mat.Pipeline, n)
	switch mode {
	case Replicate:
		for i := range out {
			out[i] = src.Clone()
		}
	case Partition:
		for i := range out {
			p := src.Clone()
			t := p.Stages[p.Start].Table
			var kept []mat.Entry
			for _, e := range t.Entries {
				if Owner(entryMatchKey(t, e), n) == i {
					kept = append(kept, e)
				}
			}
			t.Entries = kept
			out[i] = p
		}
	default:
		return nil, fmt.Errorf("fabric: unknown placement mode %q", mode)
	}
	return out, nil
}

// Owner maps a canonical match key to the member index owning it.
func Owner(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// MatchKey renders a flow-mod's match as the canonical key used for
// shard ownership and commutation checking: name=plen/bits pairs, sorted
// by name so field order on the wire does not matter.
func MatchKey(f *openflow.FlowMod) string {
	parts := make([]string, 0, len(f.Match))
	for _, m := range f.Match {
		parts = append(parts, fmt.Sprintf("%s=%d/%d", m.Name, m.Cell.PLen, m.Cell.Bits))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// entryMatchKey renders a table entry's match cells in the same canonical
// form as MatchKey, so initial placement and flow-mod routing agree on
// ownership.
func entryMatchKey(t *mat.Table, e mat.Entry) string {
	var parts []string
	for _, i := range t.Schema.Fields() {
		parts = append(parts, fmt.Sprintf("%s=%d/%d", t.Schema[i].Name, e[i].PLen, e[i].Bits))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// route assigns each flow-mod to its target members. Under replication
// every mod goes everywhere. Under partitioning, mods addressing the
// entry stage go to the owner of their match key (a delete and the add
// replacing it may land on different owners — the entry migrates); mods
// addressing later stages are replicated.
func route(mods []openflow.FlowMod, mode PlacementMode, start uint8, n int) [][]openflow.FlowMod {
	out := make([][]openflow.FlowMod, n)
	for i := range mods {
		f := mods[i]
		if mode == Partition && f.TableID == start {
			m := Owner(MatchKey(&f), n)
			out[m] = append(out[m], f)
			continue
		}
		for m := 0; m < n; m++ {
			out[m] = append(out[m], f)
		}
	}
	return out
}
