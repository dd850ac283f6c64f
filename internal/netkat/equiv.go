package netkat

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"manorm/internal/mat"
)

// Domain maps attribute names to the concrete values a semantic-equivalence
// probe should exercise.
type Domain map[string][]uint64

// DomainOf builds a complete test domain for programs over the given
// tables' match fields.
//
// Completeness: a match-action program built from exact and prefix patterns
// partitions each field's value space into maximal intervals whose
// endpoints are pattern boundaries. Two packets whose fields fall into the
// same interval on every field are indistinguishable by every test in the
// program, so probing one representative per interval per field — and the
// cross product across fields — decides equivalence exactly. For each
// pattern we include its low end, high end, and the successor of its high
// end; together with a fresh value these cover a representative of every
// maximal interval.
func DomainOf(tables ...*mat.Table) Domain {
	d := make(Domain)
	widths := make(map[string]uint8)
	seen := make(map[string]map[uint64]bool)
	add := func(name string, w uint8, v uint64) {
		if seen[name] == nil {
			seen[name] = make(map[uint64]bool)
		}
		v &= widthMask(w)
		if !seen[name][v] {
			seen[name][v] = true
			d[name] = append(d[name], v)
		}
	}
	for _, t := range tables {
		for i, a := range t.Schema {
			if a.Kind != mat.Field || mat.IsLinkAttr(a.Name) {
				continue
			}
			widths[a.Name] = a.Width
			for _, e := range t.Entries {
				c := e[i]
				lo := c.Bits
				hi := c.Bits | hostMask(c.PLen, a.Width)
				add(a.Name, a.Width, lo)
				add(a.Name, a.Width, hi)
				add(a.Name, a.Width, hi+1)
			}
		}
	}
	// One fresh value per field, outside every observed value if possible.
	for name, w := range widths {
		fresh := uint64(0)
		for seen[name][fresh] && fresh < widthMask(w) {
			fresh++
		}
		add(name, w, fresh)
		sort.Slice(d[name], func(i, j int) bool { return d[name][i] < d[name][j] })
	}
	return d
}

func widthMask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func hostMask(plen, width uint8) uint64 {
	if plen >= width {
		return 0
	}
	return widthMask(width - plen)
}

// Size returns the number of records in the domain's cross product.
func (d Domain) Size() int {
	n := 1
	for _, vs := range d {
		n *= len(vs)
		if n > 1<<30 {
			return 1 << 30
		}
	}
	return n
}

// fields returns the attribute names in sorted order for determinism.
func (d Domain) fields() []string {
	out := make([]string, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Each enumerates the cross product of the domain, calling fn with a reused
// record; fn must not retain it. If the product exceeds limit, a seeded
// random sample of limit records is probed instead and Each reports
// exhaustive=false.
func (d Domain) Each(limit int, fn func(mat.Record) error) (exhaustive bool, err error) {
	names := d.fields()
	rec := make(mat.Record, len(names))
	return d.each(limit, names,
		func(i int, v uint64) { rec[names[i]] = v },
		func() error { return fn(rec) })
}

// each is the one enumeration behind Each and Probe, so that the record
// form and the slot-vector form walk the same records in the same order:
// set(i, v) assigns v to the attribute names[i] (names is d.fields()),
// visit is called once per record.
func (d Domain) each(limit int, names []string, set func(i int, v uint64), visit func() error) (exhaustive bool, err error) {
	if len(names) == 0 {
		return true, visit()
	}
	if d.Size() <= limit {
		var walk func(i int) error
		walk = func(i int) error {
			if i == len(names) {
				return visit()
			}
			for _, v := range d[names[i]] {
				set(i, v)
				if err := walk(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return true, walk(0)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < limit; n++ {
		for i, name := range names {
			vs := d[name]
			set(i, vs[rng.Intn(len(vs))])
		}
		if err := visit(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Counterexample describes a probe on which two programs diverged.
type Counterexample struct {
	Input mat.Record
	A, B  mat.Record
}

// Error renders the divergence.
func (c *Counterexample) Error() string {
	return fmt.Sprintf("netkat: programs diverge on %v: %v vs %v", c.Input, c.A, c.B)
}

// DefaultProbeLimit bounds exhaustive probing before sampling kicks in. It
// sits above the 347 004-record domain of the 10 000-rule gateway, so the
// size the paper's claims matter at is checked exhaustively by default.
const DefaultProbeLimit = 1 << 20

// DomainOfPipelines builds the complete probe domain induced by the
// tables of all given pipelines — the inputs a finite-domain equivalence
// check between them must enumerate. Exposed so callers (e.g. the
// differential fuzzing harness) can inspect Size() first and decide
// whether an exhaustive check is affordable before running it.
func DomainOfPipelines(ps ...*mat.Pipeline) Domain {
	var tabs []*mat.Table
	for _, p := range ps {
		for _, s := range p.Stages {
			tabs = append(tabs, s.Table)
		}
	}
	return DomainOf(tabs...)
}

// EquivalentPipelines checks semantic equivalence of two pipelines over the
// test domain induced by both programs' tables: for every probe packet the
// observable results (action attributes written, drop status) must agree.
// It returns nil if no divergence was found, or a *Counterexample.
// The second return value reports whether the probe set was exhaustive
// (and therefore the equivalence exact rather than sampled).
func EquivalentPipelines(a, b *mat.Pipeline, limit int) (*Counterexample, bool, error) {
	res, err := Probe(DomainOfPipelines(a, b), limit, a, b)
	return res.Cex, res.Exhaustive, err
}

// ProbeResult is what one run of Probe established.
type ProbeResult struct {
	// Agreed counts the records on which every pipeline was evaluated and
	// all agreed: the whole domain (or the whole sample) when Cex is nil.
	Agreed int
	// Exhaustive reports whether the records were the domain's full cross
	// product rather than a sample of it.
	Exhaustive bool
	// Cex is the first record on which some pipeline's observable output
	// differed from the first pipeline's (as Cex.B and Cex.A), nil if none.
	Cex *Counterexample
	// Diverged is the index of that pipeline.
	Diverged int
}

// Probe evaluates the pipelines on every record of the domain — a seeded
// sample of limit records (DefaultProbeLimit if limit <= 0) when the domain
// holds more — and compares each pipeline's observable output with the
// first's, stopping at the first difference or evaluation error. Each
// pipeline is compiled once into a mat.Evaluator and probed in slot form;
// records are materialised only for a counterexample.
func Probe(dom Domain, limit int, ps ...*mat.Pipeline) (ProbeResult, error) {
	if limit <= 0 {
		limit = DefaultProbeLimit
	}
	pr := newProber(dom, ps)
	var res ProbeResult
	var err error
	res.Exhaustive, err = dom.each(limit, pr.names,
		func(i int, v uint64) { pr.in.Val[pr.at[i]] = v },
		func() error {
			k, err := pr.probe()
			if err != nil {
				return fmt.Errorf("pipeline %s: %w", ps[k].Name, err)
			}
			if k > 0 {
				res.Diverged = k
				res.Cex = &Counterexample{
					Input: pr.slots.Record(pr.in),
					A:     pr.slots.Record(pr.out[0]).Observable(),
					B:     pr.slots.Record(pr.out[k]).Observable(),
				}
				return errStop
			}
			res.Agreed++
			return nil
		})
	if errors.Is(err, errStop) {
		err = nil
	}
	return res, err
}

// prober is the state of one Probe run: one evaluator per pipeline over a
// shared slot numbering, the input vector the enumeration writes the
// domain's attributes into, and one output vector per pipeline.
type prober struct {
	slots *mat.Slots
	evs   []*mat.Evaluator
	names []string // the domain's attributes, in enumeration order
	at    []int    // their slots
	in    mat.Vec
	out   []mat.Vec
}

func newProber(dom Domain, ps []*mat.Pipeline) *prober {
	pr := &prober{slots: mat.NewSlots(), names: dom.fields()}
	for _, p := range ps {
		pr.evs = append(pr.evs, mat.NewEvaluator(p, pr.slots))
	}
	for _, name := range pr.names {
		pr.at = append(pr.at, pr.slots.Slot(name))
	}
	pr.in = pr.slots.NewVec()
	for _, s := range pr.at {
		pr.in.Set[s] = true
	}
	for range ps {
		pr.out = append(pr.out, pr.slots.NewVec())
	}
	return pr
}

// probe runs every evaluator on the current input. It returns the index
// of the first pipeline whose observable output differs from pipeline 0's
// (0 if none does), or the index of the one that failed and its error. It
// does not allocate.
func (pr *prober) probe() (int, error) {
	for k, ev := range pr.evs {
		copy(pr.out[k].Val, pr.in.Val)
		copy(pr.out[k].Set, pr.in.Set)
		if err := ev.Run(pr.out[k]); err != nil {
			return k, err
		}
		if k > 0 && !pr.slots.ObservableEqual(pr.out[0], pr.out[k]) {
			return k, nil
		}
	}
	return 0, nil
}

// errStop terminates domain enumeration early.
var errStop = errors.New("stop")

// EquivalentPolicies checks denotational equivalence of two compiled
// policies over a domain: equal output sets on every probe.
func EquivalentPolicies(p, q Policy, dom Domain, limit int) (*Counterexample, bool, error) {
	if limit <= 0 {
		limit = DefaultProbeLimit
	}
	var cex *Counterexample
	exhaustive, err := dom.Each(limit, func(in mat.Record) error {
		op := ObservableOutputs(p.Eval(in))
		oq := ObservableOutputs(q.Eval(in))
		if !OutputSetEqual(op, oq) {
			cex = &Counterexample{Input: in.Clone()}
			if len(op) > 0 {
				cex.A = op[0]
			}
			if len(oq) > 0 {
				cex.B = oq[0]
			}
			return errStop
		}
		return nil
	})
	if errors.Is(err, errStop) {
		return cex, exhaustive, nil
	}
	return nil, exhaustive, err
}
