package main

import (
	"fmt"
	"io"
	"math"
)

// series collects, per (workload, metric), the values of every run of one
// results file.
type series map[[2]string][]float64

func collect(f *resultsFile, traced bool) series {
	s := series{}
	for _, r := range f.Runs {
		if r.Traced != traced {
			continue
		}
		for _, m := range r.Metrics {
			k := [2]string{r.Workload, m.Name}
			s[k] = append(s[k], m.Value)
		}
	}
	return s
}

// worseBy is how much b is worse than a as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareResults prints, per (metric, workload) row, both medians, their
// relative difference and the bound, and reports whether b passes against
// a: no end-to-end row out of bound and no output disagreeing with the
// reference in either file. A row whose run-to-run spread exceeds its bound
// cannot support "unchanged" and is marked unresolved instead.
func compareResults(w io.Writer, a, b *resultsFile) bool {
	pass := true
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Runs {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "FAILED OUTPUTS  workload %s seed %d: %d of %d outputs disagree with the reference\n",
					r.Workload, r.Seed, r.Failed, r.Attempted)
				pass = false
			}
		}
	}

	fmt.Fprintf(w, "%-10s %-28s %14s %14s %9s %7s %8s  %s\n", "workload", "end-to-end metric", "median a", "median b", "b worse", "bound", "spread", "verdict")
	sa, sb := collect(a, false), collect(b, false)
	for _, sc := range scenarios {
		for _, spec := range endToEndSpecs {
			k := [2]string{sc.Name, spec.Name}
			va, vb := sa[k], sb[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(ma, mb, spec.Better)
			spread := math.Max(iqrShare(va), iqrShare(vb))
			verdict := "within bound"
			switch {
			case worse > spec.Bound:
				verdict = "OUT OF BOUND"
				pass = false
			case spread > spec.Bound && !allBetter(va, vb, spec.Better):
				verdict = "unresolved"
			case worse < -spec.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-10s %-28s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				sc.Name, spec.Name, ma, mb, 100*worse, 100*spec.Bound, 100*spread, verdict)
		}
	}

	la, lb := collect(a, true), collect(b, true)
	if len(la) > 0 && len(lb) > 0 {
		fmt.Fprintf(w, "\n%-10s %-40s %14s %14s %9s  %s\n", "workload", "per-layer metric (no bound)", "median a", "median b", "b worse", "note")
	}
	for _, sc := range scenarios {
		for _, spec := range perLayerSpecs {
			k := [2]string{sc.Name, spec.Name}
			va, vb := la[k], lb[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			note := ""
			if spec.Exact && ma != mb {
				note = "exact count DIFFERS"
			}
			fmt.Fprintf(w, "%-10s %-40s %14.6g %14.6g %+8.1f%%  %s\n", sc.Name, spec.Name, ma, mb, 100*worseBy(ma, mb, spec.Better), note)
		}
	}
	return pass
}
