package difftest

import (
	"os"
	"path/filepath"
	"testing"
)

// shrinkKinds returns the divergence kind set of a program.
func shrinkKinds(t *testing.T, p *Program) map[string]bool {
	t.Helper()
	divs, err := Execute(p, DefaultExecConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(divs))
	for _, d := range divs {
		out[d.Kind] = true
	}
	return out
}

// TestShrinkCaveat: shrinking a diverging program must keep it diverging
// with the same kind while making it strictly smaller.
func TestShrinkCaveat(t *testing.T) {
	p, err := PlantCaveat(1, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := shrinkKinds(t, p)
	if len(before) == 0 {
		t.Fatalf("planted program does not diverge:\n%s", p.Table)
	}
	s := Shrink(p, DefaultExecConfig())
	after := shrinkKinds(t, s)
	if len(after) == 0 {
		t.Fatalf("shrunk program no longer diverges:\n%s", s.Table)
	}
	overlap := false
	for k := range after {
		if before[k] {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("shrink changed the divergence kind: %v -> %v", before, after)
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
	p := Generate(2, DefaultGenConfig())
	s := Shrink(p, DefaultExecConfig())
	if s != p {
		t.Fatal("shrink modified a clean program")
	}
}

// TestShrinkWriteReplay covers the full reproducer lifecycle the fuzzing
// loop performs on a divergence: shrink, write to a corpus directory,
// read back, replay — and the replay must still diverge.
func TestShrinkWriteReplay(t *testing.T) {
	p, err := PlantCaveat(2, DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	divs, err := Execute(p, DefaultExecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) == 0 {
		t.Fatal("planted program does not diverge")
	}
	s := Shrink(p, DefaultExecConfig())

	dir := t.TempDir()
	path, err := WriteCorpus(dir, s, divs[0].Kind)
	if err != nil {
		t.Fatal(err)
	}
	replayed, kind, err := Replay(path, DefaultExecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if kind != divs[0].Kind {
		t.Fatalf("recorded kind %q, want %q", kind, divs[0].Kind)
	}
	if !Reproduces(replayed, kind) {
		t.Fatalf("replayed corpus file lost its %q divergence: %v", kind, replayed)
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
		divs, kind, err := Replay(f, DefaultExecConfig())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if kind == "" {
			t.Fatalf("%s: no recorded divergence kind", f)
		}
		if !Reproduces(divs, kind) {
			b, _ := os.ReadFile(f)
			t.Fatalf("%s: recorded kind %q not reproduced (got %v)\n%s", f, kind, divs, b)
		}
	}
}
