package difftest

import (
	"reflect"
	"testing"
)

// TestPlantConfluencePairDiverges: the planted racing pair must come back
// from the confluence property as a non-confluent divergence — the
// replayable kind — and never as a verifier disagreement.
func TestPlantConfluencePairDiverges(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := PlantConfluencePair(seed)
		divs := check(t, p, []Property{prop(t, "confluence")}, DefaultConfig())
		var nonConfluent bool
		for _, d := range divs {
			if d.Kind == KindConfluence {
				t.Fatalf("seed %d: verifier disagreement on planted pair: %s", seed, d)
			}
			if d.Kind == KindNonConfluent {
				nonConfluent = true
			}
		}
		if !nonConfluent {
			t.Fatalf("seed %d: planted pair not flagged non-confluent: %v", seed, divs)
		}
	}
}

// TestConfluenceFuzzAgreement is the in-tree slice of the confluence fuzz
// loop: across seeded generated batch pairs the verifier must never
// disagree with brute-force interleaving (KindNonConfluent is expected
// for genuinely racing updates; KindConfluence never is).
func TestConfluenceFuzzAgreement(t *testing.T) {
	var confluent, diverging int
	for seed := int64(1); seed <= 30; seed++ {
		p := GenerateConcurrent(seed)
		divs := check(t, p, []Property{prop(t, "confluence")}, DefaultConfig())
		if len(divs) == 0 {
			confluent++
			continue
		}
		for _, d := range divs {
			if d.Kind == KindConfluence {
				t.Fatalf("seed %d: verifier vs brute-force disagreement: %s", seed, d)
			}
		}
		diverging++
	}
	if confluent == 0 || diverging == 0 {
		t.Fatalf("generator not exercising both outcomes: %d confluent, %d diverging", confluent, diverging)
	}
}

func TestGenerateConcurrentDeterministic(t *testing.T) {
	a := GenerateConcurrent(11)
	b := GenerateConcurrent(11)
	if !reflect.DeepEqual(a.Batches, b.Batches) {
		t.Fatal("GenerateConcurrent not deterministic for a fixed seed")
	}
	if len(a.Batches) != 2 {
		t.Fatalf("expected 2 batches, got %d", len(a.Batches))
	}
	for bi, batch := range a.Batches {
		if len(batch) == 0 {
			t.Fatalf("batch %d empty", bi)
		}
	}
}

// TestConfluenceCorpusRoundTrip: batches survive the corpus codec and the
// written reproducer replays with its recorded kind.
func TestConfluenceCorpusRoundTrip(t *testing.T) {
	p := PlantConfluencePair(3)
	conf := prop(t, "confluence")
	b, err := MarshalCorpus(p, conf, KindNonConfluent)
	if err != nil {
		t.Fatal(err)
	}
	_, q, kind, err := UnmarshalCorpus(b)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindNonConfluent {
		t.Fatalf("kind = %q, want %q", kind, KindNonConfluent)
	}
	if !reflect.DeepEqual(p.Batches, q.Batches) {
		t.Fatal("batches did not round-trip through the corpus codec")
	}

	dir := t.TempDir()
	path, err := WriteCorpus(dir, p, conf, KindNonConfluent)
	if err != nil {
		t.Fatal(err)
	}
	divs, kind, err := Replay(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !Reproduces(divs, kind) {
		t.Fatalf("replayed reproducer lost its %q divergence: %v", kind, divs)
	}
}

// TestShrinkConfluencePair: shrinking a diverging confluence program
// keeps the divergence and never leaves fewer than two batches.
func TestShrinkConfluencePair(t *testing.T) {
	p := PlantConfluencePair(3)
	conf := prop(t, "confluence")
	s := Shrink(p, conf, KindNonConfluent, DefaultConfig())
	if len(s.Batches) < 2 {
		t.Fatalf("shrink left %d batches", len(s.Batches))
	}
	divs := check(t, s, []Property{conf}, DefaultConfig())
	if !Reproduces(divs, KindNonConfluent) {
		t.Fatalf("shrunk program lost the non-confluent divergence: %v", divs)
	}
	if s.Size() > p.Size() {
		t.Fatalf("shrink grew the program: %d > %d", s.Size(), p.Size())
	}
}
