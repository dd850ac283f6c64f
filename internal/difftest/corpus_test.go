package difftest

import (
	"testing"
)

// TestCorpusRoundTrip: marshal → unmarshal must preserve the property,
// the kind, the table, the caveat flag and every frame byte-for-byte
// (packets compare via their records, which cover all matched fields),
// and an update stream's step count.
func TestCorpusRoundTrip(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		p := GenerateUpdates(seed)
		p.Caveat = seed == 7
		pr := prop(t, "incremental")
		b, err := MarshalCorpus(p, pr, KindFixed)
		if err != nil {
			t.Fatal(err)
		}
		qp, q, kind, err := UnmarshalCorpus(b)
		if err != nil {
			t.Fatal(err)
		}
		if qp.Name != pr.Name || kind != KindFixed {
			t.Fatalf("property %q kind %q, want %q %q", qp.Name, kind, pr.Name, KindFixed)
		}
		if q.Caveat != p.Caveat || q.Seed != p.Seed || q.Note != p.Note || q.Steps != p.Steps {
			t.Fatalf("metadata changed: %+v vs %+v", q, p)
		}
		if !q.Table.Equal(p.Table) {
			t.Fatalf("table changed across round trip:\n%s\n%s", p.Table, q.Table)
		}
		if len(q.Packets) != len(p.Packets) {
			t.Fatalf("packet count %d, want %d", len(q.Packets), len(p.Packets))
		}
		for i := range p.Packets {
			if !p.Packets[i].Record().Equal(q.Packets[i].Record()) {
				t.Fatalf("packet %d changed across round trip", i)
			}
		}
	}
}

// TestCorpusRejectsGarbage: loader errors, not panics, on malformed
// files — and a shape refuses a file missing the fields it decodes.
func TestCorpusRejectsGarbage(t *testing.T) {
	table := `"table":{"name":"t","attrs":[{"name":"vlan","kind":"field","width":12}],"entries":[]}`
	for _, b := range []string{
		"", "{", `{"frames":["zz"]}`, `{"table":null}`,
		`{"property":"nosuch","kind":"verdict",` + table + `}`,
		`{"property":"forwarding",` + table + `}`,
		`{"property":"forwarding","kind":"verdict","frames":["zz"],` + table + `}`,
		`{"property":"schema-forwarding","kind":"verdict",` + table + `}`,
		`{"property":"confluence","kind":"confluence",` + table + `}`,
		`{"property":"incremental","kind":"incremental",` + table + `}`,
	} {
		if _, _, _, err := UnmarshalCorpus([]byte(b)); err == nil {
			t.Fatalf("no error for %q", b)
		}
	}
}
