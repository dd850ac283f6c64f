package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"manorm/internal/difftest"
)

// TestRunFuzzClean: a short run of every property over healthy seeds must
// complete with zero divergences and one summary line per shape, in the
// shapes' order, with what each checked.
func TestRunFuzzClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{props: "all", seed: 1, budget: "3x"}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(difftest.Shapes()) {
		t.Fatalf("want one summary per shape:\n%s", out.String())
	}
	for i, in := range difftest.Shapes() {
		if !strings.HasPrefix(lines[i], "mafuzz: "+in.Name+" [") || !strings.Contains(lines[i], ": 3 inputs (") ||
			!strings.HasSuffix(lines[i], ": 0 divergent") {
			t.Fatalf("unexpected %s summary: %s", in.Name, lines[i])
		}
	}
}

// TestRunIncrementalFuzzClean: a short incremental-vs-from-scratch run
// must reach both accepted and rejected barriers and report no
// divergence.
func TestRunIncrementalFuzzClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{props: "incremental", seed: 1, budget: "3x"}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "3 inputs") || !strings.Contains(s, "0 divergent") ||
		strings.Contains(s, "(0 accepted") || strings.Contains(s, " 0 rejected") || !strings.Contains(s, "rejected") {
		t.Fatalf("unexpected summary:\n%s", s)
	}
}

// TestRunPlantThenReplay: a planted input must diverge and write a shrunk
// reproducer into the corpus directory, which replay must then reproduce
// from disk; an unknown property or plant is an error.
func TestRunPlantThenReplay(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, options{props: "relational/fig3-caveat", seed: 1, corpus: dir}); err != nil {
		t.Fatalf("plant: %v\n%s", err, out.String())
	}
	files, err := difftest.CorpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !strings.Contains(files[0], "relational-eval-error-") {
		t.Fatalf("want 1 relational eval-error reproducer, got %v", files)
	}
	out.Reset()
	if err := run(&out, options{replay: true, corpus: dir}); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reproduced [eval-error]") {
		t.Fatalf("replay output:\n%s", out.String())
	}
	for _, props := range []string{"nosuch", "relational/nosuch", "forwarding/fig3-caveat"} {
		if err := run(&out, options{props: props, seed: 1}); err == nil {
			t.Errorf("-props %s: no error", props)
		}
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

// TestMainRejectsPositionalArgs: `mafuzz -replay DIR` names no corpus
// (the directory is -corpus's value), so a positional argument is a usage
// error with exit status 2, not a replay of the default corpus. main runs
// in a child process, since it exits.
func TestMainRejectsPositionalArgs(t *testing.T) {
	if os.Getenv("MAFUZZ_MAIN") == "1" {
		os.Args = []string{"mafuzz", "-replay", t.TempDir()}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainRejectsPositionalArgs$")
	cmd.Env = append(os.Environ(), "MAFUZZ_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unexpected argument") || !strings.Contains(stderr.String(), "usage: mafuzz") {
		t.Fatalf("want the argument named and the usage printed, got:\n%s", stderr.String())
	}
}
