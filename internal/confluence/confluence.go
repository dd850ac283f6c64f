// Package confluence is the semantic commutation verifier for concurrent
// control-plane updates — the nccheck idea applied to match-action
// programs. Given a pipeline state and a set of concurrently-planned
// flow-mod batches, it enumerates the interleavings of the batches
// (exhaustively while the multinomial count fits a budget, by seeded
// sampling beyond it) and decides whether the batches *semantically*
// commute:
//
//   - CC (convergent commutation): every interleaving must renormalize to
//     the identical canonical normal-form fingerprint (Theorem 1 makes
//     the fingerprint a sound program identity; the fused-FDD layer of
//     the hash pins the first-match decision structure too), and the
//     distinct final states must forward packet-for-packet equal on a
//     witness batch drawn from the pipelines' joint match domain.
//   - WFC (well-founded compensation): rolling back any applied prefix of
//     any batch — inverting each mod against the state it executed on —
//     must restore the base state exactly.
//
// A flow-mod rejected mid-interleaving (duplicate add, delete of a
// missing key) does not abort the check: the agent's ApplyToPipeline
// rejects before mutating, so the verifier skips the mod, records the
// rejection, and continues — first-writer-wins races surface as
// divergent finals, exactly as they would on a real switch. Callers that
// need every ordering to apply cleanly (the fabric's epoch protocol
// pre-validates whole batches) must additionally require Rejections == 0.
//
// The fabric uses Check as the semantic oracle behind its syntactic
// Commutes fast path; mafuzz -props confluence cross-checks Check against
// brute-force interleaving on the NetKAT oracle; manorm -confluence
// exposes it as a JSON verdict with a rendered counterexample.
package confluence

import (
	"fmt"

	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/openflow"
)

// Options bounds one Check.
type Options struct {
	// MaxOrderings is the exhaustive-enumeration budget: when the number
	// of distinct interleavings is at most this, all of them are checked.
	// Default 64.
	MaxOrderings int
	// SampleOrderings is the number of orderings checked beyond the
	// budget: the identity and reversed orders plus seeded uniform draws,
	// deduplicated. Default 16.
	SampleOrderings int
	// WitnessPackets bounds the forwarding witness: the joint match
	// domain of the final states is enumerated exhaustively up to this
	// many records, sampled at this budget beyond. Default 256.
	WitnessPackets int
	// Seed drives the ordering sampler and (transitively) the witness
	// sampler, making verdicts reproducible.
	Seed int64
	// Compensation additionally checks well-founded compensation for
	// every prefix of every batch.
	Compensation bool
}

func (o Options) withDefaults() Options {
	if o.MaxOrderings <= 0 {
		o.MaxOrderings = 64
	}
	if o.SampleOrderings <= 0 {
		o.SampleOrderings = 16
	}
	if o.WitnessPackets <= 0 {
		o.WitnessPackets = 256
	}
	return o
}

// Rejection records one flow-mod an interleaving could not apply (the
// state was left untouched by it).
type Rejection struct {
	// Ordering indexes the interleaving, Batch/Index the offending mod.
	Ordering int    `json:"ordering"`
	Batch    int    `json:"batch"`
	Index    int    `json:"index"`
	Err      string `json:"err"`
}

// Verdict is the outcome of one Check.
type Verdict struct {
	// Confluent reports semantic commutation: every checked interleaving
	// reached the same normal form and witness-equal forwarding, and (if
	// requested) compensation is well-founded.
	Confluent bool `json:"confluent"`
	// Orderings counts the interleavings checked; Exhaustive reports
	// whether that was all of them.
	Orderings  int  `json:"orderings"`
	Exhaustive bool `json:"exhaustive"`
	// NormalForms and FinalStates count the distinct canonical
	// fingerprints and distinct canonical final states observed across
	// the orderings. Confluence requires NormalForms == 1; FinalStates
	// may legitimately exceed 1 when syntactically different rule sets
	// normalize to the same program.
	NormalForms int `json:"normal_forms"`
	FinalStates int `json:"final_states"`
	// Fingerprint is the common normal form when Confluent.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Rejections lists every mod some ordering rejected.
	Rejections []Rejection `json:"rejections,omitempty"`
	// PacketsChecked counts the witness records compared;
	// WitnessExhaustive whether the joint domain was fully enumerated.
	PacketsChecked    int  `json:"packets_checked"`
	WitnessExhaustive bool `json:"witness_exhaustive"`
	// Compensation is the WFC report when Options.Compensation was set.
	Compensation *CompensationReport `json:"compensation,omitempty"`
	// Counterexample renders the first divergence when not Confluent.
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

// final is one interleaving's outcome.
type final struct {
	order []int
	pipe  *mat.Pipeline
	state string
	fp    string
}

// Check verifies semantic commutation of the batches against base. The
// base pipeline is not mutated. An error reports a harness-level failure
// (unevaluable state, malformed pipeline) — never a non-confluence
// verdict, which is reported in the Verdict.
func Check(base *mat.Pipeline, batches [][]openflow.FlowMod, opts Options) (*Verdict, error) {
	opts = opts.withDefaults()
	sizes := make([]int, len(batches))
	for i, b := range batches {
		sizes[i] = len(b)
	}
	orders, exhaustive := Interleavings(sizes, opts.MaxOrderings, opts.SampleOrderings, opts.Seed)
	v := &Verdict{Orderings: len(orders), Exhaustive: exhaustive}

	finals := make([]*final, 0, len(orders))
	for oi, order := range orders {
		p := base.Clone()
		pos := make([]int, len(batches))
		for _, bi := range order {
			mod := batches[bi][pos[bi]]
			if err := openflow.ApplyToPipeline(p, &mod); err != nil {
				v.Rejections = append(v.Rejections, Rejection{
					Ordering: oi, Batch: bi, Index: pos[bi], Err: err.Error(),
				})
			}
			pos[bi]++
		}
		state, err := CanonicalState(p)
		if err != nil {
			return nil, fmt.Errorf("confluence: ordering %d: %w", oi, err)
		}
		finals = append(finals, &final{order: order, pipe: p, state: state})
	}

	// Group the finals by canonical state: state-equal orderings are
	// trivially fingerprint- and forwarding-equal, so only one
	// representative per distinct state pays for renormalization and
	// witness evaluation.
	repOf := make(map[string]*final)
	var reps []*final
	for _, f := range finals {
		if repOf[f.state] == nil {
			repOf[f.state] = f
			reps = append(reps, f)
		}
	}
	v.FinalStates = len(reps)

	fps := make(map[string]*final) // fingerprint -> first rep with it
	for _, f := range reps {
		fp, err := Fingerprint(f.pipe)
		if err != nil {
			return nil, fmt.Errorf("confluence: fingerprint: %w", err)
		}
		f.fp = fp
		if fps[fp] == nil {
			fps[fp] = f
		}
	}
	v.NormalForms = len(fps)

	if v.NormalForms > 1 {
		var a, b *final
		for _, f := range reps {
			if a == nil {
				a = f
				continue
			}
			if f.fp != a.fp {
				b = f
				break
			}
		}
		v.Counterexample = divergentForms(a, b)
	} else {
		v.Fingerprint = reps[0].fp
		// All normal forms agree; witness-check the distinct final states
		// (and the base's domain, so deleted traffic is probed too) for
		// packet-for-packet agreement — the runtime complement of the
		// symbolic fingerprint.
		cex, err := witnessCheck(base, reps, opts, v)
		if err != nil {
			return nil, err
		}
		v.Counterexample = cex
	}

	if opts.Compensation {
		rep, err := checkCompensation(base, batches)
		if err != nil {
			return nil, err
		}
		v.Compensation = rep
		if !rep.OK && v.Counterexample == nil {
			v.Counterexample = &Counterexample{
				Detail: fmt.Sprintf("compensation not well-founded: %s", rep.Detail),
			}
		}
	}

	v.Confluent = v.NormalForms == 1 && v.Counterexample == nil
	return v, nil
}

// witnessCheck evaluates every distinct final state on records drawn
// from the joint match domain, comparing observables pairwise against
// the first representative.
func witnessCheck(base *mat.Pipeline, reps []*final, opts Options, v *Verdict) (*Counterexample, error) {
	finals := make([]*mat.Pipeline, len(reps))
	for i, f := range reps {
		finals[i] = f.pipe
	}
	dom := netkat.DomainOfPipelines(append([]*mat.Pipeline{base}, finals...)...)
	res, err := netkat.Probe(dom, opts.WitnessPackets, finals...)
	if err != nil {
		return nil, fmt.Errorf("confluence: witness eval: %w", err)
	}
	v.PacketsChecked += res.Agreed
	v.WitnessExhaustive = res.Exhaustive && res.Cex == nil
	if res.Cex == nil {
		return nil, nil
	}
	return divergentWitness(reps[0], reps[res.Diverged], res.Cex), nil
}
