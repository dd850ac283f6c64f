package main

import (
	"io"
	"os"
	"testing"
	"time"

	"manorm/internal/bench"
)

// slow names the registry entries that stay out of -short runs: the
// measurement-heavy ones and those that dial TCP and sleep through injected
// faults.
var slow = map[string]bool{
	"static": true, "joins": true, "parallel": true, "schemas": true,
	"faultchurn": true, "fabricchurn": true, "soak": true,
}

// TestAllExperimentsRun walks the registry under a scaled-down quick
// config, so a new entry is smoke-tested the moment it is listed. Output
// goes to the test log via stdout.
func TestAllExperimentsRun(t *testing.T) {
	cfg := bench.QuickConfig()
	cfg.Packets, cfg.LatencySamples = 5000, 500
	cfg.Workers = 2
	cfg.Duration = 3 * time.Second

	seen := map[string]bool{}
	for _, e := range bench.Experiments() {
		if seen[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is duplicated or reserved", e.Name)
		}
		seen[e.Name] = true
		if e.Doc == "" || e.Run == nil {
			t.Errorf("%s: registry entry lacks Doc or Run", e.Name)
		}
		if e.InAll == (e.Name == "soak") {
			t.Errorf("%s: InAll = %v; \"all\" is every experiment but the duration-bound soak", e.Name, e.InAll)
		}
		t.Run(e.Name, func(t *testing.T) {
			if slow[e.Name] && testing.Short() {
				t.Skip("measurement and fault-injection experiments skipped in -short mode")
			}
			c := cfg
			if e.Name == "faultchurn" || e.Name == "fabricchurn" {
				c.Services, c.Backends = 4, 3
			}
			if err := run(os.Stdout, e.Name, c); err != nil {
				t.Error(err)
			}
		})
	}
	for name := range slow {
		if !seen[name] {
			t.Errorf("slow list names %q, which is not in the registry", name)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"warp-drive", "cache", "churnwire"} {
		if err := run(io.Discard, name, bench.QuickConfig()); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}
