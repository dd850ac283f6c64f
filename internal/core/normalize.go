package core

import (
	"fmt"

	"manorm/internal/fd"
	"manorm/internal/mat"
	"manorm/internal/netkat"
)

// Options configures Normalize.
type Options struct {
	// Target is the normal form to reach: NF2 or NF3 (default NF3).
	Target Form
	// Declared supplies programmer-declared semantic dependencies for the
	// input table. When nil, dependencies are mined from the instance
	// ("transient data-level dependencies").
	Declared []fd.FD
	// Verify runs the finite-domain equivalence checker on the result
	// against the original table and fails if they diverge.
	Verify bool
	// MaxSteps bounds the number of decomposition steps (default 64).
	MaxSteps int
}

// Step records one decomposition performed during normalization.
type Step struct {
	// TableName is the table that was decomposed.
	TableName string
	// FD is the dependency used, rendered against that table's schema.
	FD string
	// Level is the normal form the violation blocked.
	Level Form
}

// Result is the outcome of Normalize.
type Result struct {
	// Pipeline is the normalized multi-table program: a chain of
	// metadata-joined stages (plus Cartesian-product stages for constant
	// attribute groups).
	Pipeline *mat.Pipeline
	// Steps lists the decompositions applied, in order.
	Steps []Step
	// Residual lists violations that could not be eliminated because the
	// only applicable dependencies were action-to-match (Fig. 3) ones.
	Residual []Violation
	// Verified reports whether an equivalence check ran and was
	// exhaustive.
	Verified bool
}

// Normalize transforms a universal match-action table into an equivalent
// multi-table pipeline in the target normal form, decomposing repeatedly
// along violating functional dependencies (§3–§4 of the paper). Stages are
// chained with the metadata join abstraction; use ToGoto to convert the
// result to goto_table chaining where supported.
func Normalize(t *mat.Table, opts Options) (*Result, error) {
	if opts.Target == 0 {
		opts.Target = NF3
	}
	if opts.Target < NF2 || opts.Target > BCNF {
		return nil, fmt.Errorf("core: unsupported normalization target %s", opts.Target)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 64
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}

	var a *Analysis
	var err error
	if opts.Declared != nil {
		a, err = AnalyzeDeclared(t, opts.Declared)
		if err != nil {
			return nil, err
		}
	} else {
		a = Analyze(t)
	}

	res := &Result{}
	tables, err := normalizeRec(a, opts, res)
	if err != nil {
		return nil, err
	}
	p := Chain(t.Name+"-normalized", tables)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res.Pipeline = p

	if opts.Verify {
		cex, exhaustive, err := netkat.EquivalentPipelines(mat.SingleTable(t), p, 0)
		if err != nil {
			return nil, err
		}
		if cex != nil {
			return nil, fmt.Errorf("core: normalization changed semantics: %v", cex)
		}
		res.Verified = exhaustive
	}
	return res, nil
}

// Chain composes tables into a sequential pipeline, every stage
// drop-on-miss.
func Chain(name string, tables []*mat.Table) *mat.Pipeline {
	p := &mat.Pipeline{Name: name, Start: 0}
	for i, t := range tables {
		next := i + 1
		if i == len(tables)-1 {
			next = -1
		}
		p.Stages = append(p.Stages, mat.Stage{Table: t, Next: next, MissDrop: true})
	}
	return p
}

// normalizeRec recursively decomposes until the target form is reached,
// returning the ordered chain of stage tables.
func normalizeRec(a *Analysis, opts Options, res *Result) ([]*mat.Table, error) {
	if len(res.Steps) >= opts.MaxSteps {
		return nil, fmt.Errorf("core: normalization exceeded %d steps", opts.MaxSteps)
	}
	form, violations := Check(a)
	if form == NF0 {
		return nil, fmt.Errorf("core: table %s is not order-independent; cannot normalize", a.Table.Name)
	}
	v, ok := pickViolation(a, violations, opts.Target)
	if !ok {
		// Target reached, or only action-to-match violations remain.
		for _, rv := range violations {
			if rv.Level <= opts.Target {
				res.Residual = append(res.Residual, rv)
			}
		}
		return []*mat.Table{a.Table}, nil
	}

	f := fd.FD{From: v.FD.From, To: v.FD.To.Minus(v.FD.From)}
	dec, err := Decompose(a, f, JoinMetadata)
	if err != nil {
		return nil, fmt.Errorf("core: normalizing %s along %s: %w", a.Table.Name, f.Format(a.Table.Schema), err)
	}
	res.Steps = append(res.Steps, Step{TableName: a.Table.Name, FD: f.Format(a.Table.Schema), Level: v.Level})

	var out []*mat.Table
	for _, st := range dec.Stages {
		sub := st.Table
		subA, err := inheritAnalysis(a, f, sub)
		if err != nil {
			return nil, err
		}
		chain, err := normalizeRec(subA, opts, res)
		if err != nil {
			return nil, err
		}
		out = append(out, chain...)
	}
	return out, nil
}

// pickViolation selects the dependency to decompose along: lowest level
// first (2NF partial dependencies before 3NF transitive ones), field-only
// LHS preferred (action LHS requires the group-table form), then larger
// RHS (more redundancy removed per step), then smaller LHS. Violations
// whose decomposition would be action-to-match (Fig. 3) are skipped.
func pickViolation(a *Analysis, violations []Violation, target Form) (Violation, bool) {
	fields := a.Table.MatchSet()
	actions := a.Table.ActionSet()
	zAttrs := func(v Violation) mat.AttrSet {
		return mat.FullSet(len(a.Table.Schema)).Minus(v.FD.From).Minus(v.FD.To)
	}
	best := -1
	var bestScore [4]int
	for i, v := range violations {
		if v.Level > target {
			continue
		}
		xHasActions := !v.FD.From.Intersect(actions).Empty()
		yHasFields := !v.FD.To.Minus(v.FD.From).Intersect(fields).Empty()
		if xHasActions && yHasFields {
			continue // Fig. 3: not decomposable.
		}
		if zAttrs(v).Empty() {
			continue // degenerate split.
		}
		if !xHasActions && !v.FD.From.Empty() &&
			!groupsDisjoint(a.Table, v.FD.From, a.Table.GroupBy(v.FD.From)) {
			continue // overlapping LHS patterns: not decomposable.
		}
		score := [4]int{
			-int(v.Level),                  // lower level first
			boolToInt(!xHasActions),        // field-only LHS first
			v.FD.To.Minus(v.FD.From).Len(), // larger RHS
			-v.FD.From.Len(),               // smaller LHS
		}
		if best < 0 || scoreLess(bestScore, score) {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return Violation{}, false
	}
	return violations[best], true
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scoreLess reports whether a < b lexicographically.
func scoreLess(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// inheritAnalysis derives the dependency structure for a decomposition
// output table. In mined mode the sub-table is re-mined. In declared mode
// the parent's dependencies are projected onto the surviving attributes and
// renamed, with the link attribute standing in for the dependency LHS (the
// link is in bijection with the LHS value).
func inheritAnalysis(parent *Analysis, f fd.FD, sub *mat.Table) (*Analysis, error) {
	if !parent.Declared {
		return Analyze(sub), nil
	}
	psch := parent.Table.Schema
	// Map parent attribute name -> sub schema index.
	subIdx := make(map[string]int, len(sub.Schema))
	for i, at := range sub.Schema {
		subIdx[at.Name] = i
	}
	linkIdx := -1
	for i, at := range sub.Schema {
		if mat.IsLinkAttr(at.Name) {
			linkIdx = i
			break
		}
	}
	// Parent attrs present in sub (by name).
	var kept mat.AttrSet
	for i, at := range psch {
		if _, ok := subIdx[at.Name]; ok {
			kept = kept.Add(i)
		}
	}
	// Project parent FDs onto kept ∪ X (X may be represented by the link).
	scope := kept.Union(f.From)
	projected := fd.Project(parent.FDs, scope)

	var out []fd.FD
	translate := func(s mat.AttrSet) (mat.AttrSet, bool) {
		var r mat.AttrSet
		rest := s
		if f.From.SubsetOf(s) && linkIdx >= 0 {
			// The whole LHS is representable by the link attribute.
			r = r.Add(linkIdx)
			rest = s.Minus(f.From)
		}
		for _, m := range rest.Members() {
			j, ok := subIdx[psch[m].Name]
			if !ok {
				return 0, false
			}
			r = r.Add(j)
		}
		return r, true
	}
	for _, pf := range projected {
		from, ok1 := translate(pf.From)
		to, ok2 := translate(pf.To)
		if !ok1 || !ok2 {
			continue
		}
		to = to.Minus(from)
		if to.Empty() {
			continue
		}
		out = append(out, fd.FD{From: from, To: to})
	}
	// The link is in bijection with the LHS: link ↔ X for the X attrs
	// present in the sub-table.
	if linkIdx >= 0 {
		var xIn mat.AttrSet
		for _, m := range f.From.Members() {
			if j, ok := subIdx[psch[m].Name]; ok {
				xIn = xIn.Add(j)
			}
		}
		if !xIn.Empty() {
			out = append(out,
				fd.FD{From: mat.NewAttrSet(linkIdx), To: xIn},
				fd.FD{From: xIn, To: mat.NewAttrSet(linkIdx)})
		}
	}
	cover := fd.MinimalCover(out)
	// Declared dependencies must hold in the sub-instance; prune any that
	// do not survive projection mechanics (defensive).
	var valid []fd.FD
	for _, g := range cover {
		if g.HoldsIn(sub) {
			valid = append(valid, g)
		}
	}
	return AnalyzeDeclared(sub, valid)
}

// VerifyEquivalent checks that a pipeline is semantically equivalent to a
// universal table on the finite probe domain of the two, returning an error
// describing the first divergence. The check is exhaustive — a proof — while
// the domain holds at most netkat.DefaultProbeLimit records (the 10 000-rule
// gateway's 347 004 do); beyond that a seeded sample of that many records is
// probed and a nil error means only that none of them diverged. Callers that
// must tell the two apart use netkat.EquivalentPipelines or netkat.Probe,
// which report it.
func VerifyEquivalent(t *mat.Table, p *mat.Pipeline) error {
	cex, _, err := netkat.EquivalentPipelines(mat.SingleTable(t), p, 0)
	if err != nil {
		return err
	}
	if cex != nil {
		return fmt.Errorf("core: not equivalent: %v", cex)
	}
	return nil
}
