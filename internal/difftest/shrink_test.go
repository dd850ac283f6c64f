package difftest

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShrinkCaveat: shrinking a diverging program must keep its kind
// while making it strictly smaller.
func TestShrinkCaveat(t *testing.T) {
	p, err := PlantCaveat(1)
	if err != nil {
		t.Fatal(err)
	}
	rel := prop(t, "relational")
	if !Reproduces(check(t, p, []Property{rel}, DefaultConfig()), KindEval) {
		t.Fatalf("planted program does not diverge:\n%s", p.Table)
	}
	s := Shrink(p, rel, KindEval, DefaultConfig())
	if !Reproduces(check(t, s, []Property{rel}, DefaultConfig()), KindEval) {
		t.Fatalf("shrunk program lost its divergence:\n%s", s.Table)
	}
	if s.Size() >= p.Size() {
		t.Fatalf("shrink did not reduce the program: %d -> %d", p.Size(), s.Size())
	}
	if len(s.Packets) < 1 || len(s.Table.Entries) < 1 {
		t.Fatalf("shrink emptied the program: %d packets, %d entries", len(s.Packets), len(s.Table.Entries))
	}
}

// TestShrinkCleanIsIdentity: a program with no divergence passes through
// Shrink untouched.
func TestShrinkCleanIsIdentity(t *testing.T) {
	p := Generate(2)
	if s := Shrink(p, prop(t, "forwarding"), KindVerdict, DefaultConfig()); s != p {
		t.Fatal("shrink modified a clean program")
	}
}

// TestShrinkWriteReplay covers the full reproducer lifecycle the fuzzing
// loop performs on a divergence — shrink, write to a corpus directory,
// read back, replay — for one planted input of every shape that has one:
// the replay must still show the recorded kind.
func TestShrinkWriteReplay(t *testing.T) {
	dir := t.TempDir()
	for _, in := range Shapes() {
		if len(in.Plants) == 0 {
			continue
		}
		pl := in.Plants[0]
		p, err := pl.New(2)
		if err != nil {
			t.Fatal(err)
		}
		pr := prop(t, pl.Property)
		s := Shrink(p, pr, pl.Kind, fuzzConfig())
		path, err := WriteCorpus(dir, s, pr, pl.Kind)
		if err != nil {
			t.Fatal(err)
		}
		divs, kind, err := Replay(path, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if kind != pl.Kind || !Reproduces(divs, kind) {
			t.Fatalf("%s/%s: replayed reproducer recorded %q, got %v", pl.Property, pl.Name, kind, divs)
		}
	}
}

// TestReplayCommittedCorpus replays every reproducer committed under
// testdata/corpus: each must still produce a divergence of its recorded
// kind, or none for a KindFixed one. This is the regression net over
// previously found bugs (and over the deliberately planted caveat demos).
func TestReplayCommittedCorpus(t *testing.T) {
	files, err := CorpusFiles(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed corpus files — the caveat reproducers should be checked in")
	}
	for _, f := range files {
		divs, kind, err := Replay(f, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !Reproduces(divs, kind) {
			b, _ := os.ReadFile(f)
			t.Fatalf("%s: recorded kind %q not reproduced (got %v)\n%s", f, kind, divs, b)
		}
	}
}
