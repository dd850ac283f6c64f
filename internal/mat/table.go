package mat

import (
	"fmt"
	"sort"
	"strings"
)

// Entry is one row of a match-action table: one cell per schema attribute.
// Cells at match-field positions are the entry's match patterns; cells at
// action positions are the action parameters the entry applies.
type Entry []Cell

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	out := make(Entry, len(e))
	copy(out, e)
	return out
}

// Table is a match-action table in the relational view: a schema plus a set
// of entries. Name is used for rendering and for goto targets in pipelines.
type Table struct {
	Name    string
	Schema  Schema
	Entries []Entry
	// Provenance records which header schema the table's attribute names
	// were minted against ("" = unspecified, treated as the default
	// stack). The dataplane compiler cross-checks it against the schema a
	// pipeline is compiled with, so a VXLAN program cannot silently bind
	// to the default parser.
	Provenance string
}

// New constructs an empty table over the given schema.
func New(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Add appends an entry built from cells in schema order. It panics if the
// cell count does not match the schema; tables are built by trusted code
// (compilers and generators), not from untrusted input.
func (t *Table) Add(cells ...Cell) *Table {
	if len(cells) != len(t.Schema) {
		panic(fmt.Sprintf("mat: entry with %d cells for schema of %d attributes", len(cells), len(t.Schema)))
	}
	e := make(Entry, len(cells))
	for i, c := range cells {
		e[i] = c.Canonical(t.Schema[i].Width)
	}
	t.Entries = append(t.Entries, e)
	return t
}

// Validate checks schema validity and entry arity.
func (t *Table) Validate() error {
	if err := t.Schema.Validate(); err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	for i, e := range t.Entries {
		if len(e) != len(t.Schema) {
			return fmt.Errorf("table %s: entry %d has %d cells, want %d", t.Name, i, len(e), len(t.Schema))
		}
	}
	return nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Schema: append(Schema(nil), t.Schema...), Provenance: t.Provenance}
	out.Entries = make([]Entry, len(t.Entries))
	for i, e := range t.Entries {
		out.Entries[i] = e.Clone()
	}
	return out
}

// MatchSet returns the set of match-field attribute positions.
func (t *Table) MatchSet() AttrSet { return NewAttrSet(t.Schema.Fields()...) }

// ActionSet returns the set of action attribute positions.
func (t *Table) ActionSet() AttrSet { return NewAttrSet(t.Schema.Actions()...) }

// key returns a comparable projection of entry e onto the attribute set s.
func (t *Table) key(e Entry, s AttrSet) string {
	var b strings.Builder
	for _, i := range s.Members() {
		fmt.Fprintf(&b, "%d/%d;", e[i].Bits, e[i].PLen)
	}
	return b.String()
}

// Distinct returns the number of distinct projections of the entries onto
// the attribute set s.
func (t *Table) Distinct(s AttrSet) int {
	seen := make(map[string]struct{}, len(t.Entries))
	for _, e := range t.Entries {
		seen[t.key(e, s)] = struct{}{}
	}
	return len(seen)
}

// GroupBy partitions entry indices by their projection onto s. Groups are
// returned in first-occurrence order, so output is deterministic.
func (t *Table) GroupBy(s AttrSet) [][]int {
	order := make(map[string]int)
	var groups [][]int
	for i, e := range t.Entries {
		k := t.key(e, s)
		gi, ok := order[k]
		if !ok {
			gi = len(groups)
			order[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// DetermineFn reports whether the projection onto x functionally determines
// the projection onto y in this table (every distinct x-value co-occurs with
// exactly one y-value). This is the definition of an FD checked directly;
// the miner in internal/fd finds all of them efficiently.
func (t *Table) DetermineFn(x, y AttrSet) bool {
	seen := make(map[string]string, len(t.Entries))
	for _, e := range t.Entries {
		kx, ky := t.key(e, x), t.key(e, y)
		if prev, ok := seen[kx]; ok {
			if prev != ky {
				return false
			}
		} else {
			seen[kx] = ky
		}
	}
	return true
}

// Project returns a new table with the schema restricted to the attribute
// set s (in schema order), with duplicate rows removed. This is relational
// projection, the building block of decomposition.
func (t *Table) Project(name string, s AttrSet) *Table {
	idx := s.Members()
	out := New(name, t.Schema.Project(idx))
	seen := make(map[string]struct{}, len(t.Entries))
	for _, e := range t.Entries {
		k := t.key(e, s)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		row := make(Entry, len(idx))
		for i, j := range idx {
			row[i] = e[j]
		}
		out.Entries = append(out.Entries, row)
	}
	return out
}

// IsOrderIndependent reports whether the match-field cells alone uniquely
// identify every entry — the paper's 1NF requirement. A table whose match
// projection has duplicates cannot be given priority-free semantics.
func (t *Table) IsOrderIndependent() bool {
	return t.Distinct(t.MatchSet()) == len(t.Entries)
}

// ConstantAttrs returns the set of attributes that take the same cell value
// in every entry. These are the attributes the paper factors into a
// Cartesian-product table (Fig. 2c, eth_type and mod_ttl).
func (t *Table) ConstantAttrs() AttrSet {
	if len(t.Entries) == 0 {
		return 0
	}
	var s AttrSet
	first := t.Entries[0]
	for i := range t.Schema {
		c := first[i]
		same := true
		for _, e := range t.Entries[1:] {
			if e[i] != c {
				same = false
				break
			}
		}
		if same {
			s = s.Add(i)
		}
	}
	return s
}

// FieldCount returns the total number of populated match-action fields in
// the table: the paper's data-plane footprint metric ("the universal table
// in Fig. 1a contains 24 match-action fields"). Wildcard cells count too
// when counted as stored fields; the paper counts every cell of every entry,
// so footprint = entries × attributes.
func (t *Table) FieldCount() int { return len(t.Entries) * len(t.Schema) }

// String renders the table as an aligned text grid, one line per entry.
func (t *Table) String() string {
	var b strings.Builder
	widths := make([]int, len(t.Schema))
	header := make([]string, len(t.Schema))
	for i, a := range t.Schema {
		header[i] = a.Name
		widths[i] = len(a.Name)
	}
	rows := make([][]string, len(t.Entries))
	for r, e := range t.Entries {
		rows[r] = make([]string, len(e))
		for i, c := range e {
			s := c.Format(t.Schema[i].Width)
			rows[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	fmt.Fprintf(&b, "table %s:\n", t.Name)
	writeRow := func(cells []string) {
		for i, s := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// SortEntries orders entries lexicographically by their cells, for
// deterministic comparison and printing of derived tables.
func (t *Table) SortEntries() {
	sort.Slice(t.Entries, func(i, j int) bool {
		a, b := t.Entries[i], t.Entries[j]
		for k := range a {
			if a[k].Bits != b[k].Bits {
				return a[k].Bits < b[k].Bits
			}
			if a[k].PLen != b[k].PLen {
				return a[k].PLen < b[k].PLen
			}
		}
		return false
	})
}

// Canonical returns the table's relation alone, in one canonical form:
// columns ordered by attribute name, entries sorted, no name. Provenance
// is kept. Tables holding the same rows over the same attributes have
// equal canonical forms, whatever their names, column or entry order.
func (t *Table) Canonical() *Table {
	idx := make([]int, len(t.Schema))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.Schema[idx[a]].Name < t.Schema[idx[b]].Name })
	out := &Table{Schema: t.Schema.Project(idx), Entries: make([]Entry, len(t.Entries)), Provenance: t.Provenance}
	for r, e := range t.Entries {
		row := make(Entry, len(idx))
		for i, j := range idx {
			row[i] = e[j]
		}
		out.Entries[r] = row
	}
	out.SortEntries()
	return out
}

// Equal reports whether two tables have identical schemas and identical
// entry sets (order-insensitive).
func (t *Table) Equal(o *Table) bool {
	if len(t.Schema) != len(o.Schema) || len(t.Entries) != len(o.Entries) {
		return false
	}
	for i := range t.Schema {
		if t.Schema[i] != o.Schema[i] {
			return false
		}
	}
	a, b := t.Clone(), o.Clone()
	a.SortEntries()
	b.SortEntries()
	for i := range a.Entries {
		for j := range a.Entries[i] {
			if a.Entries[i][j] != b.Entries[i][j] {
				return false
			}
		}
	}
	return true
}
