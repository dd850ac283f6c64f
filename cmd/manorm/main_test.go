package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manorm/internal/core"
	"manorm/internal/mat"
	"manorm/internal/usecases"
)

const fixture = "testdata/gwlb.json"

// captureStdout redirects os.Stdout around fn and returns what was
// written.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	out, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out, runErr
}

func readAll(f *os.File) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := f.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), nil
		}
	}
}

func TestAnalyzeFixture(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(true, false, "", false, false, false, fixture, "3nf", "metadata", false, "text",
			[]string{"ip_dst -> tcp_dst", "ip_src, ip_dst -> out"}, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"normal form: 1NF", "partial dependency", "{ip_src, ip_dst}", "declared"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeMined(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(true, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mined from the instance") {
		t.Errorf("mined analysis not labeled:\n%s", out)
	}
}

func TestNormalizeFixtureJSON(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(false, true, "", false, false, false, fixture, "3nf", "metadata", true, "json",
			[]string{"ip_dst -> tcp_dst", "ip_src, ip_dst -> out"}, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	var p mat.Pipeline
	if err := json.Unmarshal([]byte(out), &p); err != nil {
		t.Fatalf("output is not a pipeline JSON: %v\n%s", err, out)
	}
	if p.Depth() != 2 {
		t.Errorf("normalized depth = %d, want 2", p.Depth())
	}
}

func TestNormalizeGotoFixture(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(false, true, "", false, false, false, fixture, "3nf", "goto", true, "json",
			[]string{"ip_dst -> tcp_dst", "ip_src, ip_dst -> out"}, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	var p mat.Pipeline
	if err := json.Unmarshal([]byte(out), &p); err != nil {
		t.Fatal(err)
	}
	// Fig. 1b: 4 stages, 21 fields.
	if p.Depth() != 4 || p.FieldCount() != 21 {
		t.Errorf("goto pipeline: depth=%d fields=%d, want 4/21", p.Depth(), p.FieldCount())
	}
}

func TestDecomposeFixture(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(false, false, "ip_dst -> tcp_dst", false, false, false, fixture, "3nf", "goto", true, "text",
			[]string{"ip_dst -> tcp_dst"}, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stage 3") {
		t.Errorf("goto decomposition should have 4 stages:\n%s", out)
	}
}

func TestDenormalizeRoundTrip(t *testing.T) {
	// normalize -> write pipeline -> denormalize -> must be a 6-entry
	// table again.
	pipeJSON, err := captureStdout(t, func() error {
		return run(false, true, "", false, false, false, fixture, "3nf", "metadata", false, "json",
			[]string{"ip_dst -> tcp_dst", "ip_src, ip_dst -> out"}, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "pipe.json")
	if err := os.WriteFile(tmp, []byte(pipeJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(false, false, "", true, false, false, tmp, "3nf", "metadata", false, "json", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	var tab mat.Table
	if err := json.Unmarshal([]byte(out), &tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 6 {
		t.Errorf("denormalized entries = %d, want 6", len(tab.Entries))
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"no mode", func() error {
			return run(false, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", nil, "", 0, "")
		}},
		{"missing file", func() error {
			return run(true, false, "", false, false, false, "testdata/nope.json", "3nf", "metadata", false, "text", nil, "", 0, "")
		}},
		{"bad target", func() error {
			return run(false, true, "", false, false, false, fixture, "7nf", "metadata", false, "text", nil, "", 0, "")
		}},
		{"bad join", func() error {
			return run(false, false, "ip_dst -> tcp_dst", false, false, false, fixture, "3nf", "zipper", false, "text", nil, "", 0, "")
		}},
		{"bad fd", func() error {
			return run(true, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", []string{"nope"}, "", 0, "")
		}},
		{"unknown attr fd", func() error {
			return run(true, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", []string{"bogus -> out"}, "", 0, "")
		}},
		{"false fd", func() error {
			return run(true, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", []string{"ip_dst -> out"}, "", 0, "")
		}},
	}
	for _, tc := range cases {
		if _, err := captureStdout(t, tc.fn); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestProveFixture(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(false, false, "", false, false, false, "testdata/exact.json", "3nf", "metadata", false, "text", nil,
			"ip_dst -> tcp_dst", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Theorem 1", "BA-Seq-Idem", "KA-Seq-Dist-R", "all steps verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("prove output missing %q", want)
		}
	}
	// Prefix tables are outside the proof's setting.
	if _, err := captureStdout(t, func() error {
		return run(false, false, "", false, false, false, fixture, "3nf", "metadata", false, "text", nil,
			"ip_dst -> tcp_dst", 0, "")
	}); err == nil {
		t.Errorf("prefix table accepted by -prove")
	}
}

func TestAnalyzeReports4NFBlockers(t *testing.T) {
	// A cross-product table is 3NF+ under mined FDs but blocked from
	// 4NF; -analyze must say so.
	src := `{"name":"acl","attrs":[
	  {"name":"a","kind":"field","width":8},
	  {"name":"b","kind":"field","width":8},
	  {"name":"c","kind":"field","width":8}],
	 "entries":[["1","1","1"],["1","1","2"],["1","2","1"],["1","2","2"],
	            ["2","3","5"],["2","3","6"]]}`
	tmp := filepath.Join(t.TempDir(), "acl.json")
	if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(true, false, "", false, false, false, tmp, "3nf", "metadata", false, "text", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "blocking 4NF") {
		t.Errorf("4NF blockers not reported:\n%s", out)
	}
}

// TestConfluence drives -confluence over a table base with racing adds:
// disjoint keys must report confluent, the same key with different
// actions must render a counterexample. JSON output must round-trip.
func TestConfluence(t *testing.T) {
	writeCase := func(secondKey string) string {
		t.Helper()
		src := `{"table":{"name":"acl","attrs":[
		  {"name":"ip_dst","kind":"field","width":8},
		  {"name":"out","kind":"action","width":8}],
		 "entries":[["1","10"]]},
		 "batches":[
		  [{"Command":1,"TableID":0,"Match":[{"Name":"ip_dst","Width":8,"Cell":{"Bits":2,"PLen":8}}],
		    "Actions":[{"Name":"out","Width":8,"Value":20}]}],
		  [{"Command":1,"TableID":0,"Match":[{"Name":"ip_dst","Width":8,"Cell":{"Bits":` + secondKey + `,"PLen":8}}],
		    "Actions":[{"Name":"out","Width":8,"Value":30}]}]]}`
		tmp := filepath.Join(t.TempDir(), "case.json")
		if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return tmp
	}

	out, err := captureStdout(t, func() error {
		return run(false, false, "", false, false, true, writeCase("3"), "3nf", "metadata", false, "text", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "confluent:") || !strings.Contains(out, "compensation: OK") {
		t.Errorf("disjoint adds should be confluent:\n%s", out)
	}

	out, err = captureStdout(t, func() error {
		return run(false, false, "", false, false, true, writeCase("2"), "3nf", "metadata", false, "text", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "non-confluent") || !strings.Contains(out, "batch 0") {
		t.Errorf("racing adds on one key should render a counterexample:\n%s", out)
	}

	out, err = captureStdout(t, func() error {
		return run(false, false, "", false, false, true, writeCase("3"), "3nf", "metadata", false, "json", nil, "", 0, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(out), &v); err != nil {
		t.Fatalf("json verdict does not parse: %v\n%s", err, out)
	}
	if v["confluent"] != true {
		t.Errorf("json verdict confluent = %v, want true", v["confluent"])
	}

	// A single batch cannot race; the case must be rejected.
	src := `{"table":{"name":"t","attrs":[{"name":"a","kind":"field","width":8},
	 {"name":"out","kind":"action","width":8}],"entries":[]},"batches":[[]]}`
	tmp := filepath.Join(t.TempDir(), "one.json")
	if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return run(false, false, "", false, false, true, tmp, "3nf", "metadata", false, "text", nil, "", 0, "")
	}); err == nil {
		t.Errorf("single-batch case accepted")
	}
}

// TestFingerprint checks the fingerprint: stable format, deterministic
// across runs, invariant under entry reordering, and accepted for both
// table and pipeline inputs — a table and its normalized pipelines, which
// share one universal table, print the same fingerprint.
func TestFingerprint(t *testing.T) {
	fp := func(in string) string {
		t.Helper()
		out, err := captureStdout(t, func() error {
			return run(false, false, "", false, true, false, in, "3nf", "metadata", false, "text", nil, "", 0, "")
		})
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(out)
	}
	a := fp(fixture)
	if len(a) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex chars", a)
	}
	if b := fp(fixture); b != a {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}

	// Reverse the table's entries: matching is order-free, so the
	// fingerprint must not move.
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var tab mat.Table
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(tab.Entries)-1; i < j; i, j = i+1, j-1 {
		tab.Entries[i], tab.Entries[j] = tab.Entries[j], tab.Entries[i]
	}
	tmp := filepath.Join(t.TempDir(), "reversed.json")
	enc, err := json.Marshal(&tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if c := fp(tmp); c != a {
		t.Fatalf("fingerprint depends on entry order: %s vs %s", c, a)
	}

	for _, join := range []string{"metadata", "goto"} {
		out, err := captureStdout(t, func() error {
			return run(false, true, "", false, false, false, fixture, "3nf", join, false, "json", []string{"ip_dst -> tcp_dst"}, "", 0, "")
		})
		if err != nil {
			t.Fatal(err)
		}
		var p mat.Pipeline
		if err := json.Unmarshal([]byte(out), &p); err != nil {
			t.Fatal(err)
		}
		if p.Depth() < 2 {
			t.Fatalf("%s: fixture normalized to %d stage(s), want a multi-table pipeline", join, p.Depth())
		}
		norm := filepath.Join(t.TempDir(), join+".json")
		if err := os.WriteFile(norm, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		if c := fp(norm); c != a {
			t.Errorf("%s: normalized pipeline fingerprints %s, its table %s", join, c, a)
		}
	}
}

// TestVerifySaysWhatItProved: -verify reports an exhaustive check as a
// proof with its record count — at the 10 000-rule gateway, all 347 004 —
// and a check cut short by the probe limit as a sample, never as verified.
func TestVerifySaysWhatItProved(t *testing.T) {
	g := usecases.Generate(250, 40, 1)
	tab, err := g.Universal()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Normalize(tab, core.Options{Declared: g.Declared()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		limit int
		want  string
	}{
		{0, "manorm: equivalence verified exhaustively over 347004 records\n"},
		{1000, "manorm: equivalence sampled 1000 of 347004 records — not a proof\n"},
	} {
		var msg strings.Builder
		if err := verifyEquiv(&msg, tab, res.Pipeline, tc.limit); err != nil {
			t.Fatal(err)
		}
		if msg.String() != tc.want {
			t.Errorf("limit %d: verify printed %q, want %q", tc.limit, msg.String(), tc.want)
		}
	}

	bad := res.Pipeline.Clone()
	last := bad.Stages[len(bad.Stages)-1].Table
	last.Entries[0][last.Schema.Index("out")] = mat.Exact(0xFFFF, 16)
	var msg strings.Builder
	if err := verifyEquiv(&msg, tab, bad, 0); err == nil || msg.Len() != 0 {
		t.Errorf("corrupted normal form: err=%v, printed %q; want an error and no verdict line", err, msg.String())
	}
}
