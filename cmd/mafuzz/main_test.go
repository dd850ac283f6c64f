package main

import (
	"bytes"
	"strings"
	"testing"

	"manorm/internal/difftest"
	"manorm/internal/switches"
)

// TestRunFuzzClean: a short fuzzing run over healthy seeds must complete
// with zero divergences and a summary line.
func TestRunFuzzClean(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, options{seed: 1, iters: 5, models: switches.ModelNames()})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5 programs") || !strings.Contains(out.String(), "0 divergent") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
}

// TestRunIncrementalFuzzClean: a short incremental-vs-from-scratch run
// must reach both accepted and rejected barriers and report no divergence.
func TestRunIncrementalFuzzClean(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, options{seed: 1, iters: 3, incrFz: true, models: switches.ModelNames()})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "3 programs") || !strings.Contains(out.String(), "0 divergent") ||
		strings.Contains(out.String(), "(0 accepted") || strings.Contains(out.String(), " 0 rejected") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
}

// TestRunPlantThenReplay: the Fig. 3 demo must diverge, write a shrunk
// reproducer into the corpus directory, and the replay mode must then
// reproduce it from disk.
func TestRunPlantThenReplay(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(&out, options{seed: 1, plant: true, corpus: dir, models: switches.ModelNames()})
	if err != nil {
		t.Fatalf("plant: %v\n%s", err, out.String())
	}
	files, err := difftest.CorpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("want 1 reproducer, got %v", files)
	}
	out.Reset()
	if err := run(&out, options{replay: true, corpus: dir, models: switches.ModelNames()}); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reproduced") {
		t.Fatalf("replay output:\n%s", out.String())
	}
}

// TestRunReplayEmptyCorpus: replaying an empty corpus is an error, not a
// silent pass — CI must not green-light a deleted corpus.
func TestRunReplayEmptyCorpus(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{replay: true, corpus: t.TempDir()}); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}
