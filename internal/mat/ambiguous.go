package mat

import "sort"

// AmbiguousPairs returns pairs of entry indices whose match regions
// overlap at equal total specificity: packets in the intersection have no
// most-specific winner, so the table cannot be given priority-free
// semantics on those inputs (the runtime evaluator errors when such a
// packet arrives). A clean 1NF table for the most-specific-wins convention
// has none; the check is the static, install-time companion of
// IsOrderIndependent, which only catches *identical* match rows.
//
// Pairs come back as (i, j) with i < j, sorted. The search is tuple-space
// shaped (see plenGroup), linear in the table for the handful of
// prefix-length vectors real tables carry.
func (t *Table) AmbiguousPairs() [][2]int {
	fields := t.Schema.Fields()
	all := t.plenGroups(fields, nil)
	return t.ambiguous(fields, all, all)
}

// AmbiguousWith returns the ambiguous pairs that involve at least one of
// the given entries — all of AmbiguousPairs' pairs when every other pair
// of the table is known to be clean, which is what lets a barrier check
// only the rows its batch added.
func (t *Table) AmbiguousWith(rows []int) [][2]int {
	if len(rows) == 0 {
		return nil
	}
	fields := t.Schema.Fields()
	return t.ambiguous(fields, t.plenGroups(fields, rows), t.plenGroups(fields, nil))
}

// plenGroup is the set of entries sharing one per-field prefix-length
// vector — a tuple of tuple space search. Two entries of one group overlap
// iff their masked bits are equal; entries of two groups overlap iff they
// agree under the per-field minimum of the two vectors. Either way a hash
// on the masked bits finds the overlaps without comparing pairs.
type plenGroup struct {
	plens []uint8 // per match field
	total int
	rows  []int
}

// plenGroups partitions the given entries (nil: all of them) by
// prefix-length vector, in first-occurrence order.
func (t *Table) plenGroups(fields, rows []int) []plenGroup {
	n := len(rows)
	if rows == nil {
		n = len(t.Entries)
	}
	var groups []plenGroup
	index := make(map[string]int)
	sig := make([]byte, len(fields))
	for k := 0; k < n; k++ {
		ei := k
		if rows != nil {
			ei = rows[k]
		}
		total := 0
		for i, fi := range fields {
			sig[i] = t.Entries[ei][fi].PLen
			total += int(sig[i])
		}
		gi, ok := index[string(sig)]
		if !ok {
			gi = len(groups)
			index[string(sig)] = gi
			groups = append(groups, plenGroup{plens: append([]uint8(nil), sig...), total: total})
		}
		groups[gi].rows = append(groups[gi].rows, ei)
	}
	return groups
}

// ambiguous finds every equal-specificity overlap between an entry of a
// probe group and an entry of a table group: the probe side is hashed on
// the bits both vectors keep, the table side looks itself up.
func (t *Table) ambiguous(fields []int, probes, all []plenGroup) [][2]int {
	var out [][2]int
	masks := make([]uint64, len(fields))
	hash := func(e Entry) uint64 {
		h := uint64(14695981039346656037)
		for i, fi := range fields {
			h ^= e[fi].Bits & masks[i]
			h *= 1099511628211
		}
		return h
	}
	// heads/next chain the probe rows of one hash value: heads holds the
	// 1-based position of the latest, next the one before it.
	heads := make(map[uint64]int)
	var next []int
	for pi := range probes {
		pg := &probes[pi]
		for gi := range all {
			g := &all[gi]
			if g.total != pg.total {
				continue
			}
			for i, fi := range fields {
				pl := pg.plens[i]
				if g.plens[i] < pl {
					pl = g.plens[i]
				}
				masks[i] = prefixMask(pl, t.Schema[fi].Width)
			}
			clear(heads)
			next = next[:0]
			for pos, a := range pg.rows {
				h := hash(t.Entries[a])
				next = append(next, heads[h])
				heads[h] = pos + 1
			}
			for _, b := range g.rows {
				eb := t.Entries[b]
				for pos := heads[hash(eb)]; pos != 0; pos = next[pos-1] {
					a := pg.rows[pos-1]
					if a == b || !t.overlap(fields, t.Entries[a], eb) {
						continue
					}
					if a < b {
						out = append(out, [2]int{a, b})
					} else {
						out = append(out, [2]int{b, a})
					}
				}
			}
		}
	}
	// A pair whose two entries are both probes was found from either side.
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	uniq := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// overlap reports whether some packet matches both entries.
func (t *Table) overlap(fields []int, a, b Entry) bool {
	for _, fi := range fields {
		if !a[fi].Overlaps(b[fi], t.Schema[fi].Width) {
			return false
		}
	}
	return true
}
