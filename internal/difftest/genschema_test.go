package difftest

import (
	"strings"
	"testing"
)

// TestGenerateSchemaClean: schema-mode generated programs are clean by
// construction — every representation, compiled through the programmable
// parser, must agree on invented header schemas exactly as on the
// canonical one.
func TestGenerateSchemaClean(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := GenerateSchema(seed)
		if divs := check(t, p, shapeProps(Schemas), fuzzConfig()); len(divs) > 0 {
			t.Fatalf("seed %d diverged: %v\n%s", seed, divs, p.Table)
		}
	}
}

// TestGenerateSchemaDeterministic: the same seed must reproduce the same
// schema, table and frame bytes — replayability is what makes a corpus
// seed meaningful.
func TestGenerateSchemaDeterministic(t *testing.T) {
	a := GenerateSchema(42)
	b := GenerateSchema(42)
	if !a.Table.Equal(b.Table) {
		t.Fatalf("tables differ across identical seeds:\n%s\n%s", a.Table, b.Table)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if string(a.Frames[i]) != string(b.Frames[i]) {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
}

// TestSchemaHazardSignature: the planted schema hazard must reproduce the
// set-field/rematch signature through the programmable parser — relational
// and oracle layers clean, compiled layers diverging on the verdict in the
// rematch decomposition.
func TestSchemaHazardSignature(t *testing.T) {
	p, err := PlantSchemaHazard(5)
	if err != nil {
		t.Fatal(err)
	}
	props := []Property{prop(t, "schema-relational"), prop(t, "schema-oracle"), prop(t, "schema-forwarding")}
	divs := check(t, p, props, DefaultConfig())
	if len(divs) == 0 {
		t.Fatalf("schema hazard program did not diverge:\n%s", p.Table)
	}
	for _, d := range divs {
		if d.Kind != KindVerdict {
			t.Fatalf("expected only verdict divergences, got %s", d)
		}
		if d.Model == "" {
			t.Fatalf("hazard divergence at the relational/oracle layer: %s", d)
		}
		if !strings.Contains(d.Variant, "rematch") && !strings.Contains(d.Variant, "const") {
			t.Fatalf("divergence outside the rematch/const decomposition: %s", d)
		}
	}
}

// TestSchemaHazardShrinks: Shrink must preserve the schema hazard's
// verdict divergence while keeping the program replayable (graph intact,
// at least one frame).
func TestSchemaHazardShrinks(t *testing.T) {
	p, err := PlantSchemaHazard(5)
	if err != nil {
		t.Fatal(err)
	}
	fwd := prop(t, "schema-forwarding")
	s := Shrink(p, fwd, KindVerdict, fuzzConfig())
	if s.Graph == nil || len(s.Frames) == 0 {
		t.Fatalf("shrink lost the schema input: graph=%v frames=%d", s.Graph != nil, len(s.Frames))
	}
	if s.Size() > p.Size() {
		t.Fatalf("shrink grew the program: %d -> %d", p.Size(), s.Size())
	}
	if divs := check(t, s, []Property{fwd}, fuzzConfig()); !Reproduces(divs, KindVerdict) {
		t.Fatalf("shrunk program lost the verdict divergence: %v", divs)
	}
}

// TestSchemaCorpusRoundTrip: a schema-mode reproducer must carry its parse
// graph through the JSON corpus format and replay byte-identically.
func TestSchemaCorpusRoundTrip(t *testing.T) {
	p := GenerateSchema(9)
	b, err := MarshalCorpus(p, prop(t, "schema-forwarding"), KindVerdict)
	if err != nil {
		t.Fatal(err)
	}
	_, q, kind, err := UnmarshalCorpus(b)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindVerdict {
		t.Fatalf("kind %q, want %q", kind, KindVerdict)
	}
	if q.Graph == nil {
		t.Fatal("parse graph lost across round trip")
	}
	if q.Graph.Schema.Name != p.Graph.Schema.Name {
		t.Fatalf("schema name %q, want %q", q.Graph.Schema.Name, p.Graph.Schema.Name)
	}
	if !q.Table.Equal(p.Table) {
		t.Fatalf("table changed across round trip:\n%s\n%s", p.Table, q.Table)
	}
	if q.Table.Provenance != p.Table.Provenance {
		t.Fatalf("provenance %q, want %q", q.Table.Provenance, p.Table.Provenance)
	}
	if len(q.Frames) != len(p.Frames) {
		t.Fatalf("frame count %d, want %d", len(q.Frames), len(p.Frames))
	}
	for i := range p.Frames {
		if string(q.Frames[i]) != string(p.Frames[i]) {
			t.Fatalf("frame %d changed across round trip", i)
		}
	}
	if divs := check(t, q, shapeProps(Schemas), fuzzConfig()); len(divs) > 0 {
		t.Fatalf("round-tripped clean program diverged: %v", divs)
	}
}

// FuzzSchemaGenerated is the schema-mode twin of FuzzGenerated: every
// seed invents a fresh header schema and parse graph, and the resulting
// program must execute with zero divergences — Theorem 1 as a fuzz
// property over protocol-independent programs.
func FuzzSchemaGenerated(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	cfg, props := fuzzConfig(), shapeProps(Schemas)
	f.Fuzz(func(t *testing.T, seed int64) {
		p := GenerateSchema(seed)
		if divs := check(t, p, props, cfg); len(divs) > 0 {
			t.Fatalf("seed %d diverged: %v\n%s", seed, divs, p.Table)
		}
	})
}
