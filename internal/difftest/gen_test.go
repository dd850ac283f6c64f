package difftest

import (
	"bytes"
	"testing"

	"manorm/internal/core"
	"manorm/internal/packet"
)

// TestGenerateDeterministic: the same seed must produce byte-identical
// programs — the whole corpus/replay design depends on it.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, err := MarshalCorpus(Generate(seed), Property{}, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalCorpus(Generate(seed), Property{}, "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenerateWellFormed checks the generator's structural invariants:
// valid 1NF tables with no ambiguous pairs, and packets whose in-memory
// record survives the wire round trip unchanged (so the relational and
// frame-level executors see the same values).
func TestGenerateWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		p := Generate(seed)
		if err := p.Table.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !p.Table.IsOrderIndependent() {
			t.Fatalf("seed %d: generated table not 1NF:\n%s", seed, p.Table)
		}
		if n := len(p.Table.AmbiguousPairs()); n != 0 {
			t.Fatalf("seed %d: %d ambiguous pairs:\n%s", seed, n, p.Table)
		}
		if len(p.Packets) == 0 {
			t.Fatalf("seed %d: no packets", seed)
		}
		for i, pk := range p.Packets {
			var q packet.Packet
			if err := q.ParseInto(pk.Marshal(nil)); err != nil {
				t.Fatalf("seed %d pkt %d: %v", seed, i, err)
			}
			if !pk.Record().Equal(q.Record()) {
				t.Fatalf("seed %d pkt %d: record changed across marshal/parse:\n%v\n%v",
					seed, i, pk.Record(), q.Record())
			}
		}
	}
}

// TestGenerateDecomposable: the planted group structure must give the
// normalizer real dependencies to work with — across a seed range, a good
// fraction of programs must produce multi-stage variants, otherwise the
// harness would only ever compare the universal table with itself.
func TestGenerateDecomposable(t *testing.T) {
	multi := 0
	for seed := int64(1); seed <= 30; seed++ {
		p := Generate(seed)
		vs, err := core.Variants(p.Table, core.NF3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range vs {
			if v.Pipeline.Depth() > 1 {
				multi++
				break
			}
		}
	}
	if multi < 10 {
		t.Fatalf("only %d/30 programs produced a multi-stage variant", multi)
	}
}

// TestGenerateCaveatShape: caveat mode must plant an action-to-match
// dependency on a 1NF universal table — the trap is in the decomposition,
// never in the original.
func TestGenerateCaveatShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, err := PlantCaveat(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !p.Caveat {
			t.Fatalf("seed %d: caveat flag not set", seed)
		}
		if !p.Table.IsOrderIndependent() || len(p.Table.AmbiguousPairs()) != 0 {
			t.Fatalf("seed %d: caveat universal table must itself be 1NF:\n%s", seed, p.Table)
		}
		cp, err := CaveatPipeline(p.Table)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cp.Depth() != 2 {
			t.Fatalf("seed %d: caveat pipeline has depth %d, want 2", seed, cp.Depth())
		}
		if cp.Stages[0].Table.IsOrderIndependent() {
			t.Fatalf("seed %d: caveat first stage is order-independent — trap not planted:\n%s",
				seed, cp.Stages[0].Table)
		}
	}
}
