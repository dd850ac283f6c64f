// Package stats provides streaming quantile estimation over a bounded
// reservoir, used for the latency figures of the harness, the reactive
// simulation and the control-channel client.
package stats

import (
	"math/rand"
	"sort"
)

// Reservoir is a fixed-size uniform sample of a stream of float64
// observations (Vitter's algorithm R), good enough for the quartile
// latencies the paper reports.
type Reservoir struct {
	cap  int
	n    int64
	data []float64
	rng  *rand.Rand
}

// NewReservoir creates a reservoir holding up to cap samples. Sampling is
// deterministic for a given seed.
func NewReservoir(cap int, seed int64) *Reservoir {
	if cap <= 0 {
		cap = 1024
	}
	return &Reservoir{cap: cap, data: make([]float64, 0, cap), rng: rand.New(rand.NewSource(seed))}
}

// Add records one observation.
func (r *Reservoir) Add(v float64) {
	r.n++
	if len(r.data) < r.cap {
		r.data = append(r.data, v)
		return
	}
	if i := r.rng.Int63n(r.n); i < int64(r.cap) {
		r.data[i] = v
	}
}

// Count returns the number of observations seen (not retained).
func (r *Reservoir) Count() int64 { return r.n }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed stream.
// It returns 0 when empty.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.data) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.data...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the mean of the retained sample.
func (r *Reservoir) Mean() float64 {
	if len(r.data) == 0 {
		return 0
	}
	var s float64
	for _, v := range r.data {
		s += v
	}
	return s / float64(len(r.data))
}
