package netkat

import (
	"fmt"

	"manorm/internal/mat"
)

// This file makes the paper's Theorem 1 proof *executable*: given a 1NF
// exact-match table T over attributes X ∪ Y ∪ Z with a functional
// dependency X → Y (X, Y header fields), it constructs the chain of
// NetKAT policies the proof walks through —
//
//	T = Σᵢ xᵢ; yᵢ; zᵢ
//	  = Σᵢ xᵢ; D(xᵢ); zᵢ                      (by X → Y)
//	  = Σᵢ xᵢ; xᵢ; D(xᵢ); zᵢ                  (BA-Seq-Idem)
//	  = Σᵢ (Σ_{j: xⱼ=xᵢ} xⱼ; D(xⱼ)); xᵢ; zᵢ   (KA-Plus-Idem)
//	  = Σᵢ (Σ_j xⱼ; D(xⱼ)); xᵢ; zᵢ            (BA-Contra + KA-Plus-Zero)
//	  = (Σ_j xⱼ; D(xⱼ)); (Σᵢ xᵢ; zᵢ)          (KA-Seq-Dist-R)
//	  = T_XY ≫ T_XZ
//
// — and checks every consecutive pair for semantic equality over the
// complete finite probe domain. The result is a machine-checked instance
// of the theorem for the given table.

// ProofStep is one policy in the rewrite chain with the axiom that
// justifies the step from its predecessor.
type ProofStep struct {
	// Axiom names the NetKAT axiom (or "start").
	Axiom string
	// Policy is the rewritten program.
	Policy Policy
}

// ProveDecomposition builds and checks the Theorem 1 rewrite chain for a
// table and a field-only dependency X → Y. It returns the verified steps,
// or an error naming the first step that fails (which would disprove the
// theorem instance — it cannot happen for valid inputs).
//
// The proof's setting is the paper's: exact-match predicates only, X and Y
// header fields, and order-independent entries.
func ProveDecomposition(t *mat.Table, x, y mat.AttrSet) ([]ProofStep, error) {
	sch := t.Schema
	n := len(sch)
	if !x.Union(y).SubsetOf(mat.FullSet(n)) || x.Intersect(y) != 0 {
		return nil, fmt.Errorf("netkat: X and Y must be disjoint schema attribute sets")
	}
	for _, i := range x.Union(y).Members() {
		if sch[i].Kind != mat.Field {
			return nil, fmt.Errorf("netkat: theorem 1 requires X and Y to be header fields; %s is an action", sch[i].Name)
		}
	}
	for _, e := range t.Entries {
		for _, fi := range sch.Fields() {
			if !e[fi].IsExact(sch[fi].Width) {
				return nil, fmt.Errorf("netkat: theorem 1's proof assumes exact-match predicates; entry has %s=%s",
					sch[fi].Name, e[fi].Format(sch[fi].Width))
			}
		}
	}
	if !t.IsOrderIndependent() {
		return nil, fmt.Errorf("netkat: table is not in 1NF")
	}
	if !t.DetermineFn(x, y) {
		return nil, fmt.Errorf("netkat: X → Y does not hold")
	}
	z := mat.FullSet(n).Minus(x).Minus(y)

	// Policy fragments per entry: tests for the X, Y parts; tests+actions
	// for the Z part (z also carries the table's actions — the proof's
	// "policies zᵢ").
	testsOf := func(e mat.Entry, set mat.AttrSet) Seq {
		var s Seq
		for _, i := range set.Members() {
			if sch[i].Kind == mat.Field {
				s = append(s, Test{Field: sch[i].Name, Cell: e[i], Width: sch[i].Width})
			}
		}
		return s
	}
	policyOf := func(e mat.Entry, set mat.AttrSet) Seq {
		s := testsOf(e, set)
		for _, i := range set.Members() {
			if sch[i].Kind == mat.Action {
				s = append(s, Assign{Field: sch[i].Name, Value: e[i].Bits})
			}
		}
		return s
	}
	// D maps an entry's X value to its Y tests (the dependency function).
	dOf := func(e mat.Entry) Seq { return testsOf(e, y) }

	entries := t.Entries
	sameX := func(a, b mat.Entry) bool {
		for _, i := range x.Members() {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	var steps []ProofStep
	add := func(axiom string, p Policy) {
		steps = append(steps, ProofStep{Axiom: axiom, Policy: p})
	}

	// Step 0: T = Σᵢ xᵢ; yᵢ; zᵢ (BA-Seq-Comm regroups Eq. (1)).
	var t0 Plus
	for _, e := range entries {
		t0 = append(t0, Seq{testsOf(e, x), testsOf(e, y), policyOf(e, z)})
	}
	add("start (Eq. 1, regrouped by BA-Seq-Comm)", t0)

	// Step 1: replace yᵢ by D(xᵢ) — justified by X → Y.
	var t1 Plus
	for _, e := range entries {
		t1 = append(t1, Seq{testsOf(e, x), dOf(e), policyOf(e, z)})
	}
	add("X -> Y (yᵢ = D(xᵢ))", t1)

	// Step 2: duplicate the X test — BA-Seq-Idem (a; a = a).
	var t2 Plus
	for _, e := range entries {
		t2 = append(t2, Seq{testsOf(e, x), testsOf(e, x), dOf(e), policyOf(e, z)})
	}
	add("BA-Seq-Idem", t2)

	// Step 3: commute the middle tests — BA-Seq-Comm.
	var t3 Plus
	for _, e := range entries {
		t3 = append(t3, Seq{testsOf(e, x), dOf(e), testsOf(e, x), policyOf(e, z)})
	}
	add("BA-Seq-Comm", t3)

	// Step 4: fold the leading xᵢ; D(xᵢ) into a sum over the entries with
	// the same X value — KA-Plus-Idem (p + p = p).
	var t4 Plus
	for _, e := range entries {
		var grp Plus
		for _, e2 := range entries {
			if sameX(e, e2) {
				grp = append(grp, Seq{testsOf(e2, x), dOf(e2)})
			}
		}
		t4 = append(t4, Seq{grp, testsOf(e, x), policyOf(e, z)})
	}
	add("KA-Plus-Idem", t4)

	// Step 5: extend each group sum to ALL entries — the extra terms are
	// contradictory (xⱼ; ...; xᵢ = 0 for xⱼ ≠ xᵢ): BA-Contra +
	// KA-Plus-Zero.
	depSum := make(Plus, 0, len(entries))
	for _, e := range entries {
		depSum = append(depSum, Seq{testsOf(e, x), dOf(e)})
	}
	var t5 Plus
	for _, e := range entries {
		t5 = append(t5, Seq{depSum, testsOf(e, x), policyOf(e, z)})
	}
	add("BA-Contra + KA-Plus-Zero", t5)

	// Step 6: factor the common left factor out of the sum —
	// KA-Seq-Dist-R: Σᵢ (p; qᵢ) = p; Σᵢ qᵢ.
	restSum := make(Plus, 0, len(entries))
	for _, e := range entries {
		restSum = append(restSum, Seq{testsOf(e, x), policyOf(e, z)})
	}
	t6 := Seq{depSum, restSum}
	add("KA-Seq-Dist-R (= T_XY ≫ T_XZ)", t6)

	// Machine-check every consecutive pair over the complete domain. The
	// budget is the one these checks always had: policy evaluation is a
	// walk of the term, not the indexed evaluator DefaultProbeLimit is
	// sized for.
	dom := DomainOf(t)
	for i := 1; i < len(steps); i++ {
		cex, _, err := EquivalentPolicies(steps[i-1].Policy, steps[i].Policy, dom, 200000)
		if err != nil {
			return nil, err
		}
		if cex != nil {
			return nil, fmt.Errorf("netkat: proof step %d (%s) is not semantics-preserving: %v",
				i, steps[i].Axiom, cex)
		}
	}
	return steps, nil
}
