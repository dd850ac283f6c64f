package difftest

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzConfig trades oracle depth for iteration rate — the native fuzz
// engine wants many executions per second; mafuzz runs the deeper config.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.OracleExhaustive = 512
	cfg.OracleSample = 32
	return cfg
}

// FuzzGenerated is the native differential fuzz target over generator
// seeds: every seed must yield a program that passes every program
// property (Theorem 1 as a fuzz property). `go test` runs just the seed
// corpus below; `go test -fuzz=FuzzGenerated` explores further.
func FuzzGenerated(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	// Seeds recovered from committed reproducers join the corpus too, so
	// regressions around previously interesting programs are revisited.
	if files, err := CorpusFiles(filepath.Join("testdata", "corpus")); err == nil {
		for _, path := range files {
			if b, err := os.ReadFile(path); err == nil {
				if _, p, _, err := UnmarshalCorpus(b); err == nil && p.Seed != 0 {
					f.Add(p.Seed)
				}
			}
		}
	}
	cfg, props := fuzzConfig(), shapeProps(Programs)
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(seed)
		if divs := check(t, p, props, cfg); len(divs) > 0 {
			t.Fatalf("seed %d diverged: %v\n%s", seed, divs, p.Table)
		}
	})
}

// FuzzCorpusLoader fuzzes the reproducer file format end to end: no
// input — however mangled — may panic the loader or its property's
// check. Mutated inputs may legitimately diverge (a mutation can break
// 1NF); the property here is robustness, not equivalence.
func FuzzCorpusLoader(f *testing.F) {
	if files, err := CorpusFiles(filepath.Join("testdata", "corpus")); err == nil {
		for _, path := range files {
			if b, err := os.ReadFile(path); err == nil {
				f.Add(b)
			}
		}
	}
	f.Add([]byte(`{"property":"relational","kind":"eval-error","table":{"name":"t","attrs":[{"name":"vlan","kind":"field","width":12}],"entries":[]},"frames":[]}`))
	cfg := fuzzConfig()
	cfg.Models = []string{"eswitch"} // keep the robustness target fast
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, p, _, err := UnmarshalCorpus(data)
		if err != nil {
			return
		}
		if p.Table.Validate() != nil || len(p.Table.Schema) > 12 || len(p.Table.Entries) > 64 || p.Steps > 16 {
			return
		}
		if _, _, err := Run(p, []Property{pr}, cfg); err != nil {
			t.Skipf("harness declined: %v", err)
		}
	})
}
