package confluence

import (
	"fmt"
	"sort"
	"strings"

	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/openflow"
)

// Counterexample renders the minimal evidence of non-confluence: the two
// divergent delivery orderings and either the differing fingerprints or
// a witness record the final states forward differently.
type Counterexample struct {
	// OrderA/OrderB are the two interleavings (sequences of batch
	// indices) whose outcomes differ.
	OrderA []int `json:"order_a,omitempty"`
	OrderB []int `json:"order_b,omitempty"`
	// FingerprintA/FingerprintB are the orderings' fingerprints (equal
	// for forwarding divergences).
	FingerprintA string `json:"fingerprint_a,omitempty"`
	FingerprintB string `json:"fingerprint_b,omitempty"`
	// NormalFormA/NormalFormB render the divergent final states in
	// canonical JSON (CanonicalState) when the fingerprints differ.
	NormalFormA string `json:"normal_form_a,omitempty"`
	NormalFormB string `json:"normal_form_b,omitempty"`
	// Probe is the witness record on which forwarding diverged, with
	// ObservedA/ObservedB the two observables.
	Probe     map[string]uint64 `json:"probe,omitempty"`
	ObservedA string            `json:"observed_a,omitempty"`
	ObservedB string            `json:"observed_b,omitempty"`
	// Detail is the one-line human summary.
	Detail string `json:"detail"`
}

// divergentForms builds the counterexample for two orderings whose
// final states denormalize to different universal tables.
func divergentForms(a, b *final) *Counterexample {
	return &Counterexample{
		OrderA:       a.order,
		OrderB:       b.order,
		FingerprintA: a.fp,
		FingerprintB: b.fp,
		NormalFormA:  a.state,
		NormalFormB:  b.state,
		Detail: fmt.Sprintf("orderings %v and %v reach distinct universal tables %s vs %s",
			a.order, b.order, a.fp, b.fp),
	}
}

// divergentWitness builds the counterexample for two state-distinct
// orderings that fingerprint equal but forward a probe differently.
func divergentWitness(a, b *final, cex *netkat.Counterexample) *Counterexample {
	return &Counterexample{
		OrderA:       a.order,
		OrderB:       b.order,
		FingerprintA: a.fp,
		FingerprintB: b.fp,
		Probe:        cex.Input,
		ObservedA:    renderRecord(cex.A),
		ObservedB:    renderRecord(cex.B),
		Detail: fmt.Sprintf("orderings %v and %v forward %s differently: %s vs %s",
			a.order, b.order, renderRecord(cex.Input), renderRecord(cex.A), renderRecord(cex.B)),
	}
}

// renderRecord formats a record deterministically (sorted attributes).
func renderRecord(r mat.Record) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Render prints the counterexample with the updates it concerns: the
// batches, the two divergent orderings, and the differing outcomes —
// the human-readable form manorm -confluence emits.
func (c *Counterexample) Render(batches [][]openflow.FlowMod) string {
	var b strings.Builder
	fmt.Fprintf(&b, "non-confluent: %s\n", c.Detail)
	for bi, batch := range batches {
		fmt.Fprintf(&b, "batch %d:\n", bi)
		for i := range batch {
			fmt.Fprintf(&b, "  [%d] %s\n", i, renderMod(&batch[i]))
		}
	}
	if len(c.OrderA) > 0 || len(c.OrderB) > 0 {
		fmt.Fprintf(&b, "ordering A %v -> %s\nordering B %v -> %s\n",
			c.OrderA, c.FingerprintA, c.OrderB, c.FingerprintB)
	}
	if c.NormalFormA != "" && c.NormalFormA != c.NormalFormB {
		fmt.Fprintf(&b, "normal form A: %s\nnormal form B: %s\n", c.NormalFormA, c.NormalFormB)
	}
	if c.Probe != nil {
		fmt.Fprintf(&b, "witness %s: A observes %s, B observes %s\n",
			renderRecord(mat.Record(c.Probe)), c.ObservedA, c.ObservedB)
	}
	return b.String()
}

// renderMod formats one flow-mod on a single line.
func renderMod(f *openflow.FlowMod) string {
	cmd := map[openflow.FlowModCommand]string{
		openflow.FlowAdd: "add", openflow.FlowModify: "modify", openflow.FlowDelete: "delete",
	}[f.Command]
	if cmd == "" {
		cmd = fmt.Sprintf("cmd%d", f.Command)
	}
	var parts []string
	for _, m := range f.Match {
		if m.Cell.IsAny() {
			parts = append(parts, m.Name+"=*")
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d/%d", m.Name, m.Cell.Bits, m.Cell.PLen))
	}
	s := fmt.Sprintf("%s t%d {%s}", cmd, f.TableID, strings.Join(parts, " "))
	if len(f.Actions) > 0 {
		var acts []string
		for _, a := range f.Actions {
			acts = append(acts, fmt.Sprintf("%s=%d", a.Name, a.Value))
		}
		s += " -> {" + strings.Join(acts, " ") + "}"
	}
	return s
}
