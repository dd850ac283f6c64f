package mat

import (
	"strings"
	"testing"
)

// fig1a builds the paper's Fig. 1a universal cloud gateway & load-balancer
// table: attributes (ip_src, ip_dst, tcp_dst, out).
func fig1a() *Table {
	t := New("T0", Schema{F("ip_src", 32), F("ip_dst", 32), F("tcp_dst", 16), A("out", 16)})
	t.Add(Prefix(0, 1, 32), IPv4("192.0.2.1"), Exact(80, 16), Exact(1, 16))
	t.Add(Prefix(0x80000000, 1, 32), IPv4("192.0.2.1"), Exact(80, 16), Exact(2, 16))
	t.Add(Prefix(0, 2, 32), IPv4("192.0.2.2"), Exact(443, 16), Exact(3, 16))
	t.Add(Prefix(0x40000000, 2, 32), IPv4("192.0.2.2"), Exact(443, 16), Exact(4, 16))
	t.Add(Prefix(0x80000000, 1, 32), IPv4("192.0.2.2"), Exact(443, 16), Exact(5, 16))
	t.Add(Any(), IPv4("192.0.2.3"), Exact(22, 16), Exact(6, 16))
	return t
}

func TestSchemaValidate(t *testing.T) {
	tests := []struct {
		name string
		s    Schema
		ok   bool
	}{
		{"valid", Schema{F("a", 8), A("b", 16)}, true},
		{"empty", Schema{}, false},
		{"dup", Schema{F("a", 8), A("a", 16)}, false},
		{"zero width", Schema{F("a", 0)}, false},
		{"wide", Schema{F("a", 65)}, false},
		{"empty name", Schema{F("", 8)}, false},
	}
	for _, tc := range tests {
		if err := tc.s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := Schema{F("ip_src", 32), F("ip_dst", 32), A("out", 16)}
	if got := s.Index("ip_dst"); got != 1 {
		t.Errorf("Index(ip_dst) = %d, want 1", got)
	}
	if got := s.Index("nope"); got != -1 {
		t.Errorf("Index(nope) = %d, want -1", got)
	}
	if f := s.Fields(); len(f) != 2 || f[0] != 0 || f[1] != 1 {
		t.Errorf("Fields() = %v", f)
	}
	if a := s.Actions(); len(a) != 1 || a[0] != 2 {
		t.Errorf("Actions() = %v", a)
	}
	names := s.Project([]int{2, 0}).Names()
	if names[0] != "out" || names[1] != "ip_src" {
		t.Errorf("Project order wrong: %v", names)
	}
}

func TestFieldCountFig1a(t *testing.T) {
	// The paper: "the universal table in Fig. 1a contains 24 match-action
	// fields".
	if got := fig1a().FieldCount(); got != 24 {
		t.Errorf("Fig. 1a field count = %d, want 24", got)
	}
}

func TestDetermineFnFig1a(t *testing.T) {
	tab := fig1a()
	s := tab.Schema
	ipDst := SetOf(s, "ip_dst")
	tcpDst := SetOf(s, "tcp_dst")
	out := SetOf(s, "out")
	ipSrc := SetOf(s, "ip_src")

	// Paper §3: ip_dst → tcp_dst and out → ip_dst hold in Fig. 1a.
	if !tab.DetermineFn(ipDst, tcpDst) {
		t.Errorf("ip_dst → tcp_dst should hold")
	}
	if !tab.DetermineFn(out, ipDst) {
		t.Errorf("out → ip_dst should hold")
	}
	// ip_dst does not determine out (load balancing splits it).
	if tab.DetermineFn(ipDst, out) {
		t.Errorf("ip_dst → out should not hold")
	}
	// ip_src alone determines nothing interesting.
	if tab.DetermineFn(ipSrc, out) {
		t.Errorf("ip_src → out should not hold")
	}
	// (ip_src, ip_dst) is a key: it determines everything.
	key := ipSrc.Union(ipDst)
	if !tab.DetermineFn(key, FullSet(len(s))) {
		t.Errorf("(ip_src, ip_dst) should determine all attributes")
	}
}

func TestDistinctAndGroupBy(t *testing.T) {
	tab := fig1a()
	ipDst := SetOf(tab.Schema, "ip_dst")
	if got := tab.Distinct(ipDst); got != 3 {
		t.Errorf("Distinct(ip_dst) = %d, want 3 services", got)
	}
	groups := tab.GroupBy(ipDst)
	if len(groups) != 3 {
		t.Fatalf("GroupBy(ip_dst) = %d groups, want 3", len(groups))
	}
	sizes := []int{len(groups[0]), len(groups[1]), len(groups[2])}
	if sizes[0] != 2 || sizes[1] != 3 || sizes[2] != 1 {
		t.Errorf("group sizes = %v, want [2 3 1]", sizes)
	}
}

func TestProjectDeduplicates(t *testing.T) {
	tab := fig1a()
	p := tab.Project("svc", SetOf(tab.Schema, "ip_dst", "tcp_dst"))
	if len(p.Entries) != 3 {
		t.Errorf("projection onto (ip_dst, tcp_dst) has %d rows, want 3", len(p.Entries))
	}
	if len(p.Schema) != 2 {
		t.Errorf("projected schema has %d attrs, want 2", len(p.Schema))
	}
}

func TestIsOrderIndependent(t *testing.T) {
	tab := fig1a()
	if !tab.IsOrderIndependent() {
		t.Errorf("Fig. 1a should be order independent")
	}
	// Duplicate a match projection: two entries with identical matches.
	dup := tab.Clone()
	e := dup.Entries[0].Clone()
	e[3] = Exact(99, 16) // different action, same match
	dup.Entries = append(dup.Entries, e)
	if dup.IsOrderIndependent() {
		t.Errorf("duplicated match row should break order independence")
	}
}

func TestConstantAttrs(t *testing.T) {
	tab := New("L3", Schema{F("eth_type", 16), F("ip_dst", 32), A("mod_ttl", 8), A("out", 16)})
	tab.Add(Exact(0x800, 16), IPv4Prefix("10.0.0.0", 8), Exact(1, 8), Exact(1, 16))
	tab.Add(Exact(0x800, 16), IPv4Prefix("10.1.0.0", 16), Exact(1, 8), Exact(2, 16))
	c := tab.ConstantAttrs()
	want := SetOf(tab.Schema, "eth_type", "mod_ttl")
	if c != want {
		t.Errorf("ConstantAttrs = %s, want %s", c.Format(tab.Schema), want.Format(tab.Schema))
	}
	if New("empty", tab.Schema).ConstantAttrs() != 0 {
		t.Errorf("empty table should have no constant attrs")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := fig1a()
	c := tab.Clone()
	c.Entries[0][0] = Exact(42, 32)
	if tab.Entries[0][0] == c.Entries[0][0] {
		t.Errorf("Clone shares entry storage")
	}
}

func TestEqualOrderInsensitive(t *testing.T) {
	a := fig1a()
	b := fig1a()
	b.Entries[0], b.Entries[5] = b.Entries[5], b.Entries[0]
	if !a.Equal(b) {
		t.Errorf("reordered tables should be Equal")
	}
	b.Entries[0][3] = Exact(9, 16)
	if a.Equal(b) {
		t.Errorf("modified table should not be Equal")
	}
	if a.Equal(New("x", a.Schema)) {
		t.Errorf("tables with different entry counts should not be Equal")
	}
}

// TestCanonicalForgetsNameAndOrder: the canonical form orders columns by
// name, sorts entries and drops the table name, keeping provenance — so a
// renamed, column-permuted, entry-reversed copy has the same one.
func TestCanonicalForgetsNameAndOrder(t *testing.T) {
	a := fig1a()
	a.Provenance = "default"
	perm := []int{3, 2, 0, 1}
	b := New("other", a.Schema.Project(perm))
	b.Provenance = a.Provenance
	for i := len(a.Entries) - 1; i >= 0; i-- {
		e := a.Entries[i]
		b.Entries = append(b.Entries, Entry{e[perm[0]], e[perm[1]], e[perm[2]], e[perm[3]]})
	}
	ca, cb := a.Canonical(), b.Canonical()
	if got := strings.Join(ca.Schema.Names(), ","); got != "ip_dst,ip_src,out,tcp_dst" {
		t.Errorf("canonical columns %s, want them by name", got)
	}
	if ca.Name != "" || ca.Provenance != "default" {
		t.Errorf("canonical name %q provenance %q, want no name and the provenance kept", ca.Name, ca.Provenance)
	}
	if ca.String() != cb.String() {
		t.Errorf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	if a.Name != "T0" || a.Schema[0].Name != "ip_src" {
		t.Errorf("Canonical modified its receiver")
	}
}

func TestTableValidate(t *testing.T) {
	tab := fig1a()
	if err := tab.Validate(); err != nil {
		t.Fatalf("valid table: %v", err)
	}
	tab.Entries[0] = tab.Entries[0][:2]
	if err := tab.Validate(); err == nil {
		t.Errorf("short entry not caught")
	}
}

func TestAddPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Add with wrong arity did not panic")
		}
	}()
	New("t", Schema{F("a", 8)}).Add(Exact(1, 8), Exact(2, 8))
}

func TestStringRendering(t *testing.T) {
	s := fig1a().String()
	for _, want := range []string{"table T0", "ip_src", "ip_dst", "tcp_dst", "out", "80", "443", "22"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestSortEntriesDeterministic(t *testing.T) {
	a := fig1a()
	b := fig1a()
	b.Entries[1], b.Entries[4] = b.Entries[4], b.Entries[1]
	a.SortEntries()
	b.SortEntries()
	for i := range a.Entries {
		for j := range a.Entries[i] {
			if a.Entries[i][j] != b.Entries[i][j] {
				t.Fatalf("SortEntries not canonical at %d/%d", i, j)
			}
		}
	}
}

func TestAmbiguousPairs(t *testing.T) {
	// Fig. 1a: backend prefixes are disjoint per service and services
	// have distinct VIPs — no ambiguity.
	if got := fig1a().AmbiguousPairs(); len(got) != 0 {
		t.Fatalf("Fig. 1a reported ambiguous: %v", got)
	}
	// Identical match rows are ambiguous (and order-dependent).
	dup := New("D", Schema{F("a", 8), A("o", 8)})
	dup.Add(Exact(1, 8), Exact(1, 8))
	dup.Add(Exact(1, 8), Exact(2, 8))
	if got := dup.AmbiguousPairs(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Fatalf("duplicate rows not flagged: %v", got)
	}
	// Equal-specificity overlap across different columns: (10/8, *) vs
	// (*, 80-as-/16 ... need equal totals: /8+/0 = 8 vs /0+/16 = 16 — not
	// equal. Use (10/16, *) vs (*, 80): 16 vs 16 — ambiguous on packets
	// to 10.x with port 80.
	amb := New("A", Schema{F("ip", 32), F("port", 16), A("o", 8)})
	amb.Add(IPv4Prefix("10.0.0.0", 16), Any(), Exact(1, 8))
	amb.Add(Any(), Exact(80, 16), Exact(2, 8))
	if got := amb.AmbiguousPairs(); len(got) != 1 {
		t.Fatalf("cross-column ambiguity not flagged: %v", got)
	}
	// And the runtime evaluator indeed errors on the ambiguous input.
	pl := SingleTable(amb)
	if _, err := pl.Eval(Record{"ip": 0x0A000001, "port": 80}); err == nil {
		t.Fatalf("ambiguous packet evaluated without error")
	}
	// Nested prefixes (different specificity) are fine.
	nested := New("N", Schema{F("ip", 32), A("o", 8)})
	nested.Add(IPv4Prefix("10.0.0.0", 8), Exact(1, 8))
	nested.Add(IPv4Prefix("10.1.0.0", 16), Exact(2, 8))
	if got := nested.AmbiguousPairs(); len(got) != 0 {
		t.Fatalf("nested prefixes misreported: %v", got)
	}
}
