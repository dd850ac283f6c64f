package bench

import (
	"fmt"
	"io"
	"strings"

	"manorm/internal/switches"
	"manorm/internal/usecases"
)

// RenderTable1 prints Table 1 in the paper's layout: switches as column
// groups, representations as rows.
func RenderTable1(w io.Writer, rows []*StaticResult) {
	byKey := make(map[string]*StaticResult)
	for _, r := range rows {
		byKey[r.Switch+"/"+string(r.Rep)] = r
	}
	fmt.Fprintln(w, "Table 1: static performance, gateway & load-balancer (rate [Mpps], 3rd-quartile delay [us])")
	fmt.Fprintf(w, "%-11s", "")
	for _, sw := range switches.ModelNames() {
		fmt.Fprintf(w, "  %-18s", sw)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-11s", "")
	for range switches.ModelNames() {
		fmt.Fprintf(w, "  %-8s %-9s", "rate", "delay")
	}
	fmt.Fprintln(w)
	for _, rep := range []usecases.Representation{usecases.RepUniversal, usecases.RepGoto, usecases.RepFused} {
		fmt.Fprintf(w, "%-11s", rep)
		for _, sw := range switches.ModelNames() {
			r := byKey[sw+"/"+string(rep)]
			if r == nil {
				fmt.Fprintf(w, "  %-8s %-9s", "-", "-")
				continue
			}
			fmt.Fprintf(w, "  %-8.2f %-9.0f", r.RateMpps, r.DelayUs)
		}
		fmt.Fprintln(w)
	}
}

// RenderFig4 prints the reactiveness series as aligned columns (one line
// per update rate, both representations).
func RenderFig4(w io.Writer, rows []*ReactiveResult) {
	fmt.Fprintln(w, "Fig. 4: reactiveness on the NoviFlow model (gateway & load-balancer)")
	fmt.Fprintln(w, "(model = closed form; sim = emergent from the discrete-time stall simulation)")
	fmt.Fprintf(w, "%-8s %-11s %-10s %-13s %-11s %-10s %-14s %-10s\n",
		"upd/s", "uni model", "uni sim", "uni delay", "goto model", "goto sim", "goto delay", "churn u:g")
	byRate := map[float64][2]*ReactiveResult{}
	var order []float64
	for _, r := range rows {
		pair := byRate[r.UpdatesPerSec]
		if r.Rep == usecases.RepUniversal {
			pair[0] = r
		} else {
			pair[1] = r
		}
		if _, seen := byRate[r.UpdatesPerSec]; !seen {
			order = append(order, r.UpdatesPerSec)
		}
		byRate[r.UpdatesPerSec] = pair
	}
	for _, rate := range order {
		pair := byRate[rate]
		u, g := pair[0], pair[1]
		if u == nil || g == nil {
			continue
		}
		fmt.Fprintf(w, "%-8.0f %-11.2f %-10.2f %-13.1f %-11.2f %-10.2f %-14.1f %d:%d\n",
			rate, u.RateMpps, u.SimRateMpps, u.DelayUs, g.RateMpps, g.SimRateMpps, g.DelayUs, u.ModsPerUpdate, g.ModsPerUpdate)
	}
}

// RenderFootprint prints the E1 sweep.
func RenderFootprint(w io.Writer, rows []*FootprintRow) {
	fmt.Fprintln(w, "E1: data-plane footprint [match-action fields] (paper: universal=4MN, goto=N(3+2M))")
	fmt.Fprintf(w, "%-5s %-5s %-10s %-10s %-10s %-10s %-8s\n", "N", "M", "universal", "goto", "metadata", "rematch", "uni/goto")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5d %-5d %-10d %-10d %-10d %-10d %-8.2f\n",
			r.N, r.M, r.Universal, r.Goto, r.Metadata, r.Rematch, r.Ratio)
	}
}

// RenderControl prints the E2 table.
func RenderControl(w io.Writer, rows []*ControlRow) {
	fmt.Fprintln(w, "E2: controllability — table entries touched per service update")
	fmt.Fprintf(w, "%-11s %-12s %-12s\n", "rep", "port change", "VIP change")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-12d %-12d\n", r.Rep, r.PortChange, r.VIPChange)
	}
}

// RenderMonitor prints the E3 table.
func RenderMonitor(w io.Writer, rows []*MonitorRow) {
	fmt.Fprintln(w, "E3: monitorability — counters needed for one tenant aggregate")
	fmt.Fprintf(w, "%-11s %-9s\n", "rep", "counters")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-9d\n", r.Rep, r.Counters)
	}
}

// RenderL3 prints the E6 table.
func RenderL3(w io.Writer, rows []*L3Row) {
	fmt.Fprintln(w, "E6: L3 pipeline normalization (Fig. 2 at scale)")
	fmt.Fprintf(w, "%-9s %-9s %-6s %-10s %-11s %-7s %-14s %-9s\n",
		"prefixes", "nexthops", "ports", "uni fields", "norm fields", "stages", "stage sizes", "verified")
	for _, r := range rows {
		sizes := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(r.StageSizes)), ","), "[]")
		fmt.Fprintf(w, "%-9d %-9d %-6d %-10d %-11d %-7d %-14s %-9v\n",
			r.Prefixes, r.NextHops, r.Ports, r.UniversalFields, r.NormalizedFields, r.Stages, sizes, r.Verified)
	}
}

// RenderCaveat prints the E7 demonstration.
func RenderCaveat(w io.Writer, r *CaveatResult) {
	fmt.Fprintln(w, "E7: the Fig. 3 caveat — decomposition along an action-to-match dependency")
	fmt.Fprintf(w, "dependency:  %s\n", r.FD)
	fmt.Fprintf(w, "rejected:    %v\n", r.Rejected)
	fmt.Fprintf(w, "reason:      %s\n", r.Err)
}

// RenderSDX prints the E8 demonstration.
func RenderSDX(w io.Writer, r *SDXResult) {
	fmt.Fprintln(w, "E8: SDX (appendix, Fig. 5) — beyond-3NF decomposition")
	fmt.Fprintf(w, "universal entries:              %d\n", r.UniversalEntries)
	fmt.Fprintf(w, "metadata pipeline stages:       %d\n", r.PipelineStages)
	fmt.Fprintf(w, "naive inbound table in 1NF:     %v (must be false — needs the 'all' tag)\n", r.NaiveInbound1NF)
	fmt.Fprintf(w, "pipeline ≡ universal:           %v (exhaustive probe: %v)\n", r.Equivalent, r.Exhaustive)
}

// RenderJoins prints the A1 ablation.
func RenderJoins(w io.Writer, rows []*JoinRow) {
	fmt.Fprintln(w, "A1: join-abstraction ablation on the ESwitch model")
	fmt.Fprintf(w, "%-11s %-8s %-8s %-10s %-10s %s\n", "rep", "fields", "entries", "rate[Mpps]", "delay[us]", "templates")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-8d %-8d %-10.2f %-10.0f %s\n",
			r.Rep, r.Fields, r.Entries, r.RateMpps, r.DelayUs, strings.Join(r.Templates, ","))
	}
}

// RenderDepth prints the A2 ablation.
func RenderDepth(w io.Writer, rows []*DepthRow) {
	fmt.Fprintln(w, "A2: normalization-depth ablation (L3 use case)")
	fmt.Fprintf(w, "%-18s %-7s %-8s %-22s\n", "target", "stages", "fields", "remaining violations")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-7d %-8d %-22d\n", r.Target, r.Stages, r.Fields, r.Violations)
	}
}
