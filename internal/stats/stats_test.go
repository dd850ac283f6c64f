package stats

import (
	"math/rand"
	"testing"
)

func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 1; i <= 99; i++ {
		r.Add(float64(i))
	}
	if got := r.Quantile(0.5); got != 50 {
		t.Errorf("median = %g, want 50", got)
	}
	if got := r.Quantile(0); got != 1 {
		t.Errorf("min = %g, want 1", got)
	}
	if got := r.Quantile(1); got != 99 {
		t.Errorf("max = %g, want 99", got)
	}
	if got := r.Quantile(0.75); got < 74 || got > 76 {
		t.Errorf("p75 = %g, want ~75", got)
	}
	if r.Count() != 99 {
		t.Errorf("Count = %d", r.Count())
	}
	if m := r.Mean(); m != 50 {
		t.Errorf("Mean = %g, want 50", m)
	}
}

func TestReservoirSamplingAccuracy(t *testing.T) {
	// A uniform stream of 100k values through a 4k reservoir: quartiles
	// within a few percent.
	r := NewReservoir(4096, 7)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		r.Add(rng.Float64() * 1000)
	}
	for _, q := range []float64{0.25, 0.5, 0.75} {
		got := r.Quantile(q)
		want := q * 1000
		if got < want-50 || got > want+50 {
			t.Errorf("q%.2f = %g, want ~%g", q, got, want)
		}
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(8, 1)
	if r.Quantile(0.5) != 0 || r.Mean() != 0 {
		t.Errorf("empty reservoir not zero-valued")
	}
}
