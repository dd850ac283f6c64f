// Command manorm is the match-action normalizer CLI: it reads a table (or
// pipeline) in the JSON format of internal/mat, reports its dependency
// structure and normal form, and performs the paper's transformations —
// normalization into a multi-table pipeline, single-step decomposition,
// goto conversion, and denormalization back into a universal table.
//
// Usage:
//
//	manorm -analyze        -in table.json
//	manorm -normalize      -in table.json [-target 3nf] [-fd "ip_dst -> tcp_dst"]... [-join goto] [-verify]
//	manorm -decompose "ip_dst -> tcp_dst" -in table.json [-join metadata]
//	manorm -prove     "ip_dst -> tcp_dst" -in table.json
//	manorm -denormalize    -in pipeline.json
//	manorm -fingerprint    -in pipeline.json
//	manorm -confluence     -in case.json
//
// -prove prints the paper's Theorem 1 rewrite chain for the given
// dependency, machine-checking every step (exact-match tables only).
//
// -trace-sample N emits a runtime witness for every Nth table entry; the
// probes default to canonical packets, and -schema <name> switches them
// to FieldViews over a shipped header schema so tables over arbitrary
// schema fields (vxlan_vni, mpls_label, gtpu_teid, ...) can be witnessed.
//
// -fingerprint prints the fingerprint of a table or pipeline: the hash of
// its universal table. The installed rules are denormalized to the one
// table that forwards like them, put in canonical form (columns by
// attribute name, entries sorted, no table name) and hashed. The
// fingerprint is invariant to the order rules were installed in (resends
// and interleaved deliveries reorder entries), to the multi-table shape
// and to table names and column order, so two switches driven to the
// same program fingerprint equal — it is how the fabric convergence
// checker (internal/fabric) decides that replicas agree.
//
// -confluence runs the semantic commutation verifier
// (internal/confluence) on a JSON case of the form
//
//	{"pipeline": {...} | "table": {...}, "batches": [[flowmod...], ...]}
//
// — a base state plus concurrently-planned flow-mod batches. Every
// interleaving of the batches is applied (exhaustively up to a budget,
// seeded-sampled beyond it) and checked to reach one fingerprint,
// forward witness packets identically, and compensate cleanly (rolling
// back any applied prefix restores the base state). The
// text output is the verdict plus a rendered minimal counterexample for
// non-confluent cases; -format json emits the full verdict structure.
// The exit status is 0 either way — non-confluence is a property of the
// input, not a tool failure.
//
// Input defaults to stdin; output is text (-format text) or JSON
// (-format json) on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"manorm/internal/cliflags"
	"manorm/internal/confluence"
	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/fd"
	"manorm/internal/mat"
	"manorm/internal/netkat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var (
		analyze     = flag.Bool("analyze", false, "report dependencies, keys and normal form")
		normalize   = flag.Bool("normalize", false, "normalize the table into a pipeline")
		decompose   = flag.String("decompose", "", "single decomposition step along the given dependency (\"a,b -> c\")")
		prove       = flag.String("prove", "", "print the machine-checked Theorem 1 rewrite chain for the dependency")
		denorm      = flag.Bool("denormalize", false, "re-join a pipeline into its universal table")
		fingerprint = flag.Bool("fingerprint", false, "print the fingerprint (hash of the universal table) of a table or pipeline")
		confl       = flag.Bool("confluence", false, "verify semantic commutation of concurrent flow-mod batches against a base state")
		in          = flag.String("in", "-", "input file (JSON table or pipeline), - for stdin")
		target      = flag.String("target", "3nf", "normalization target: 2nf, 3nf or bcnf")
		join        = flag.String("join", "metadata", "join abstraction: metadata, goto or rematch")
		verify      = flag.Bool("verify", false, "verify semantic equivalence of the result")
		format      = flag.String("format", "text", "output format: text or json")
		declaredFDs multiFlag
	)
	flag.Var(&declaredFDs, "fd", "declared semantic dependency (repeatable), e.g. \"ip_dst -> tcp_dst\"")
	obs := cliflags.Register(flag.CommandLine)
	flag.Parse()
	if obs.JSON {
		*format = "json"
	}

	// Verification over large tables can run long; the endpoint mostly
	// buys pprof access while it does.
	if srv, err := obs.Serve(telemetry.NewRegistry()); err != nil {
		fmt.Fprintln(os.Stderr, "manorm:", err)
		os.Exit(1)
	} else if srv != nil {
		fmt.Fprintf(os.Stderr, "manorm: metrics and pprof on http://%s\n", srv.Addr)
		defer srv.Close()
	}

	if err := run(*analyze, *normalize, *decompose, *denorm, *fingerprint, *confl, *in, *target, *join, *verify, *format, declaredFDs, *prove, obs.TraceSample, obs.Schema); err != nil {
		fmt.Fprintln(os.Stderr, "manorm:", err)
		os.Exit(1)
	}
}

func run(analyze, normalize bool, decompose string, denorm, fingerprint, confl bool, in, target, join string, verify bool, format string, declaredFDs []string, prove string, traceSample int, schema string) error {
	data, err := readInput(in)
	if err != nil {
		return err
	}

	if fingerprint {
		return runFingerprint(data)
	}

	if confl {
		return runConfluence(data, format)
	}

	if denorm {
		var p mat.Pipeline
		if err := json.Unmarshal(data, &p); err != nil {
			return fmt.Errorf("parsing pipeline: %w", err)
		}
		tab, err := core.Denormalize(&p)
		if err != nil {
			return err
		}
		return emitTable(os.Stdout, tab, format)
	}

	var tab mat.Table
	if err := json.Unmarshal(data, &tab); err != nil {
		return fmt.Errorf("parsing table: %w", err)
	}
	if err := tab.Validate(); err != nil {
		return err
	}

	var declared []fd.FD
	for _, s := range declaredFDs {
		f, err := fd.Parse(s, tab.Schema)
		if err != nil {
			return err
		}
		declared = append(declared, f)
	}

	switch {
	case analyze:
		return runAnalyze(&tab, declared)
	case prove != "":
		return runProve(&tab, prove)
	case decompose != "":
		return runDecompose(&tab, declared, decompose, join, verify, format, traceSample, schema)
	case normalize:
		return runNormalize(&tab, declared, target, join, verify, format, traceSample, schema)
	default:
		return fmt.Errorf("pick one of -analyze, -normalize, -decompose or -denormalize")
	}
}

// emitWitnesses probes the original table and the produced pipeline with
// FieldViews synthesized from every trace-sample'th table entry and
// prints the paired per-stage witnesses to stderr — the runtime Theorem 1
// check alongside the symbolic -verify. The views are of the default
// schema, or of the named shipped schema with -schema, so tables matching
// arbitrary schema fields (vxlan_vni, mpls_label, ...) can be witnessed
// too; a table matching a field outside the schema cannot be.
func emitWitnesses(tab *mat.Table, p *mat.Pipeline, every int, schema string) error {
	if every <= 0 {
		return nil
	}
	dec := packet.DefaultDecoder()
	if schema != "" {
		var err error
		if dec, err = packet.BuiltinDecoder(schema); err != nil {
			return err
		}
	}
	for _, fi := range tab.Schema.Fields() {
		if dec.Schema().Slot(tab.Schema[fi].Name) < 0 {
			fmt.Fprintf(os.Stderr, "manorm: no witnesses emitted (%s is not a field of schema %s)\n", tab.Schema[fi].Name, dec.Schema().Name)
			return nil
		}
	}
	opt := dataplane.WithSchema(dec.Schema())
	udp, err := dataplane.Compile(mat.SingleTable(tab), dataplane.AutoTemplates, opt)
	if err != nil {
		return fmt.Errorf("witness compile (universal): %w", err)
	}
	pdp, err := dataplane.Compile(p, dataplane.AutoTemplates, opt)
	if err != nil {
		return fmt.Errorf("witness compile (pipeline): %w", err)
	}
	uctx, pctx := udp.NewCtx(), pdp.NewCtx()
	for ei, entry := range tab.Entries {
		if (ei+1)%every != 0 {
			continue
		}
		// Each side explains its own freshly synthesized view: the
		// universal pass may rewrite fields the pipeline pass matches.
		uv, utr, err := udp.ProcessExplainView(probeFor(dec, tab, entry), uctx)
		if err != nil {
			return err
		}
		pv, ptr, err := pdp.ProcessExplainView(probeFor(dec, tab, entry), pctx)
		if err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, utr.String())
		fmt.Fprint(os.Stderr, ptr.String())
		if uv.Drop != pv.Drop || (!uv.Drop && uv.Port != pv.Port) {
			return fmt.Errorf("witness verdicts disagree on entry %d: %s vs %s", ei, utr.Verdict(), ptr.Verdict())
		}
		fmt.Fprintf(os.Stderr, "manorm: entry %d verdicts agree: %s\n", ei, utr.Verdict())
	}
	return nil
}

// probeFor synthesizes a FieldView matching one table entry: every header
// of the schema is marked present and each match field is written through
// its slot (emitWitnesses checked that every one has a slot).
func probeFor(dec *packet.Decoder, tab *mat.Table, entry mat.Entry) *packet.FieldView {
	view := dec.NewView()
	for hi := range dec.Schema().Headers {
		view.MarkPresent(hi)
	}
	for _, fi := range tab.Schema.Fields() {
		view.SetName(tab.Schema[fi].Name, entry[fi].Bits)
	}
	return view
}

func readInput(in string) ([]byte, error) {
	if in == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(in)
}

func buildAnalysis(tab *mat.Table, declared []fd.FD) (*core.Analysis, error) {
	if len(declared) > 0 {
		return core.AnalyzeDeclared(tab, declared)
	}
	return core.Analyze(tab), nil
}

func runAnalyze(tab *mat.Table, declared []fd.FD) error {
	a, err := buildAnalysis(tab, declared)
	if err != nil {
		return err
	}
	fmt.Print(tab.String())
	src := "mined from the instance"
	if a.Declared {
		src = "declared"
	}
	fmt.Printf("\ndependencies (%s):\n", src)
	for _, f := range a.FDs {
		fmt.Printf("  %s\n", f.Format(tab.Schema))
	}
	fmt.Println("candidate keys:")
	for _, k := range a.Keys {
		fmt.Printf("  %s\n", k.Format(tab.Schema))
	}
	fmt.Printf("non-prime attributes: %s\n", a.NonPrime().Format(tab.Schema))
	form, violations := core.Check(a)
	fmt.Printf("normal form: %s\n", form)
	for _, v := range violations {
		fmt.Printf("  %s\n", v.Format(tab.Schema))
	}
	if blocking := core.Check4NF(a); len(blocking) > 0 {
		fmt.Println("multivalued dependencies blocking 4NF:")
		for _, m := range blocking {
			fmt.Printf("  %s\n", m.Format(tab.Schema))
		}
	} else {
		fmt.Println("no multivalued dependencies block 4NF")
	}
	return nil
}

func parseJoin(join string) (core.JoinKind, error) {
	switch join {
	case "metadata", "meta":
		return core.JoinMetadata, nil
	case "goto":
		return core.JoinGoto, nil
	case "rematch":
		return core.JoinRematch, nil
	default:
		return 0, fmt.Errorf("unknown join %q (metadata, goto, rematch)", join)
	}
}

func runDecompose(tab *mat.Table, declared []fd.FD, dep, join string, verify bool, format string, traceSample int, schema string) error {
	a, err := buildAnalysis(tab, declared)
	if err != nil {
		return err
	}
	f, err := fd.Parse(dep, tab.Schema)
	if err != nil {
		return err
	}
	jk, err := parseJoin(join)
	if err != nil {
		return err
	}
	p, err := core.Decompose(a, f, jk)
	if err != nil {
		return err
	}
	if verify {
		if err := verifyEquiv(os.Stderr, tab, p, 0); err != nil {
			return err
		}
	}
	if err := emitWitnesses(tab, p, traceSample, schema); err != nil {
		return err
	}
	return emitPipeline(os.Stdout, p, format)
}

func runNormalize(tab *mat.Table, declared []fd.FD, target, join string, verify bool, format string, traceSample int, schema string) error {
	var form core.Form
	switch target {
	case "2nf":
		form = core.NF2
	case "3nf":
		form = core.NF3
	case "bcnf":
		form = core.BCNF
	default:
		return fmt.Errorf("unknown target %q (2nf, 3nf, bcnf)", target)
	}
	res, err := core.Normalize(tab, core.Options{Target: form, Declared: declared})
	if err != nil {
		return err
	}
	p := res.Pipeline
	if join == "goto" {
		if p, err = core.ToGoto(p); err != nil {
			return err
		}
	}
	for _, s := range res.Steps {
		fmt.Fprintf(os.Stderr, "manorm: decomposed %s along %s (%s violation)\n", s.TableName, s.FD, s.Level)
	}
	for _, v := range res.Residual {
		fmt.Fprintf(os.Stderr, "manorm: residual: %s\n", v.Format(tab.Schema))
	}
	fmt.Fprintf(os.Stderr, "manorm: footprint %d -> %d fields, %d stage(s)\n",
		tab.FieldCount(), p.FieldCount(), p.Depth())
	if verify {
		if err := verifyEquiv(os.Stderr, tab, p, 0); err != nil {
			return err
		}
	}
	if err := emitWitnesses(tab, p, traceSample, schema); err != nil {
		return err
	}
	return emitPipeline(os.Stdout, p, format)
}

// verifyEquiv checks the emitted pipeline against the universal table on
// the finite probe domain and says on w how much that established: a proof
// when every record of the domain was probed, a sample (limit records, or
// netkat.DefaultProbeLimit for 0) when the domain holds more.
func verifyEquiv(w io.Writer, tab *mat.Table, p *mat.Pipeline, limit int) error {
	uni := mat.SingleTable(tab)
	dom := netkat.DomainOfPipelines(uni, p)
	res, err := netkat.Probe(dom, limit, uni, p)
	if err != nil {
		return err
	}
	if res.Cex != nil {
		return fmt.Errorf("manorm: not equivalent: %v", res.Cex)
	}
	if res.Exhaustive {
		fmt.Fprintf(w, "manorm: equivalence verified exhaustively over %d records\n", res.Agreed)
	} else {
		fmt.Fprintf(w, "manorm: equivalence sampled %d of %d records — not a proof\n", res.Agreed, dom.Size())
	}
	return nil
}

// runFingerprint prints the fingerprint (the hash of the universal
// table) of the input, which may be either a pipeline or a single table.
func runFingerprint(data []byte) error {
	p := new(mat.Pipeline)
	if err := json.Unmarshal(data, p); err != nil || len(p.Stages) == 0 {
		var tab mat.Table
		if err := json.Unmarshal(data, &tab); err != nil {
			return fmt.Errorf("parsing table or pipeline: %w", err)
		}
		if err := tab.Validate(); err != nil {
			return err
		}
		p = mat.SingleTable(&tab)
	}
	fp, err := confluence.Fingerprint(p)
	if err != nil {
		return err
	}
	fmt.Println(fp)
	return nil
}

// confluenceCase is the -confluence input: a base state (pipeline or
// single table) plus the concurrently-planned flow-mod batches to race
// against it.
type confluenceCase struct {
	Pipeline *mat.Pipeline        `json:"pipeline,omitempty"`
	Table    *mat.Table           `json:"table,omitempty"`
	Batches  [][]openflow.FlowMod `json:"batches"`
	Options  *confluence.Options  `json:"options,omitempty"`
}

// runConfluence checks semantic commutation of concurrent batches and
// reports the verdict. Non-confluence is a property of the input, not a
// tool failure, so it exits 0 either way.
func runConfluence(data []byte, format string) error {
	var c confluenceCase
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("parsing confluence case: %w", err)
	}
	base := c.Pipeline
	if base == nil || len(base.Stages) == 0 {
		if c.Table == nil {
			return fmt.Errorf("confluence case needs a \"pipeline\" or \"table\" base state")
		}
		if err := c.Table.Validate(); err != nil {
			return err
		}
		base = mat.SingleTable(c.Table)
	}
	if len(c.Batches) < 2 {
		return fmt.Errorf("confluence case needs at least 2 batches, got %d", len(c.Batches))
	}
	opts := confluence.Options{Compensation: true}
	if c.Options != nil {
		opts = *c.Options
	}
	v, err := confluence.Check(base, c.Batches, opts)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if v.Confluent {
		fmt.Printf("confluent: %d orderings (exhaustive=%v) -> fingerprint %s\n",
			v.Orderings, v.Exhaustive, v.Fingerprint)
	} else if v.Counterexample != nil {
		fmt.Print(v.Counterexample.Render(c.Batches))
	} else {
		fmt.Println("non-confluent")
	}
	if len(v.Rejections) > 0 {
		fmt.Printf("rejected mods: %d (first: ordering %d batch %d mod %d: %s)\n",
			len(v.Rejections), v.Rejections[0].Ordering, v.Rejections[0].Batch,
			v.Rejections[0].Index, v.Rejections[0].Err)
	}
	if v.Compensation != nil {
		if v.Compensation.OK {
			fmt.Printf("compensation: OK (%d prefixes rolled back cleanly)\n", v.Compensation.Prefixes)
		} else {
			fmt.Printf("compensation: FAILED at batch %d prefix %d: %s\n",
				v.Compensation.Batch, v.Compensation.Prefix, v.Compensation.Detail)
		}
	}
	fmt.Printf("witness: %d packets compared (exhaustive=%v)\n", v.PacketsChecked, v.WitnessExhaustive)
	return nil
}

// runProve prints the machine-checked Theorem 1 rewrite chain.
func runProve(tab *mat.Table, dep string) error {
	f, err := fd.Parse(dep, tab.Schema)
	if err != nil {
		return err
	}
	steps, err := netkat.ProveDecomposition(tab, f.From, f.To)
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 1 instance for %s on table %s — %d machine-checked steps:\n",
		f.Format(tab.Schema), tab.Name, len(steps))
	for i, st := range steps {
		fmt.Printf("\n[%d] %s\n    %s\n", i, st.Axiom, st.Policy)
	}
	fmt.Println("\nall steps verified semantically equivalent over the complete probe domain")
	return nil
}

func emitTable(w io.Writer, t *mat.Table, format string) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(t)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

func emitPipeline(w io.Writer, p *mat.Pipeline, format string) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	_, err := fmt.Fprint(w, p.String())
	return err
}
