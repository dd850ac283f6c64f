package fdd

import (
	"math/rand"
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// refOutcome is the reference interpreter's result on one packet record.
type refOutcome struct {
	drop   bool
	port   uint64
	hasOut bool
	tables int
}

// refInterpret executes the pipeline over a header record with *datapath*
// semantics: per table, the most-specific matching entry (entry order on
// ties) wins; rewrites update the record so later stages re-match the
// rewritten values; metadata registers start at zero.
func refInterpret(t *testing.T, p *mat.Pipeline, rec map[string]uint64) refOutcome {
	t.Helper()
	binder := packet.DefaultBinder()
	meta := map[string]uint64{}
	var out refOutcome
	cur := p.Start
	for steps := 0; cur >= 0; steps++ {
		if steps > len(p.Stages) {
			t.Fatalf("reference interpreter: goto cycle")
		}
		stg := p.Stages[cur]
		sch := stg.Table.Schema
		out.tables++
		best, bestPrio := -1, -1
		for ei, e := range stg.Table.Entries {
			hit, prio := true, 0
			for _, fi := range sch.Fields() {
				at := sch[fi]
				v := rec[at.Name]
				if mat.IsLinkAttr(at.Name) {
					v = meta[at.Name]
				}
				if !e[fi].Matches(v, at.Width) {
					hit = false
					break
				}
				prio += int(e[fi].PLen)
			}
			if hit && prio > bestPrio {
				best, bestPrio = ei, prio
			}
		}
		if best < 0 {
			if stg.MissDrop {
				out.drop = true
				return out
			}
			cur = stg.Next
			continue
		}
		e := stg.Table.Entries[best]
		g := -1
		for i, at := range sch {
			if at.Kind != mat.Action {
				continue
			}
			switch {
			case at.Name == mat.GotoAttr:
				g = int(e[i].Bits)
			case at.Name == "out":
				out.port, out.hasOut = e[i].Bits, true
			case at.Name == "mod_ttl":
				if v := rec[packet.FieldTTL]; v > 0 {
					rec[packet.FieldTTL] = v - 1
				}
			case mat.IsLinkAttr(at.Name):
				meta[at.Name] = e[i].Bits
			default:
				// As the dataplane does: a write to a field outside the
				// default schema is a no-op.
				fld := binder.ActionTarget(at.Name)
				if w := binder.Width(fld); w > 0 {
					rec[fld] = e[i].Bits & ((uint64(1) << w) - 1)
				}
			}
		}
		if g >= 0 {
			cur = g
		} else {
			cur = stg.Next
		}
	}
	return out
}

// evalFused finds the first fused rule matching the ORIGINAL header record
// and replays its action list.
func evalFused(prog *Program, rec map[string]uint64) refOutcome {
	scratch := map[string]uint64{}
	for k, v := range rec {
		scratch[k] = v
	}
	for _, r := range prog.Rules {
		hit := true
		for i, c := range prog.Cols {
			if !r.Match[i].Matches(rec[c.Name], c.Width) {
				hit = false
				break
			}
		}
		if !hit {
			continue
		}
		out := refOutcome{drop: r.Drop, tables: r.Tables()}
		for _, a := range r.Acts {
			switch a.Attr {
			case "out":
				out.port, out.hasOut = a.Value, true
			case "mod_ttl":
				if v := scratch[packet.FieldTTL]; v > 0 {
					scratch[packet.FieldTTL] = v - 1
				}
			}
		}
		return out
	}
	return refOutcome{drop: true, tables: -1} // total rule lists never miss
}

// gwlbRecord draws a random header record biased toward the configured
// VIP/port space so both hit and miss paths are exercised.
func gwlbRecord(rng *rand.Rand, g *usecases.GwLB) map[string]uint64 {
	rec := map[string]uint64{
		packet.FieldIPSrc:  rng.Uint64() & 0xFFFFFFFF,
		packet.FieldIPDst:  rng.Uint64() & 0xFFFFFFFF,
		packet.FieldTCPDst: rng.Uint64() & 0xFFFF,
		packet.FieldTTL:    64,
	}
	if rng.Intn(4) != 0 {
		svc := g.Services[rng.Intn(len(g.Services))]
		rec[packet.FieldIPDst] = uint64(svc.VIP)
		if rng.Intn(8) != 0 {
			rec[packet.FieldTCPDst] = uint64(svc.Port)
		}
	}
	return rec
}

// Fusing the gateway/load-balancer decompositions must preserve verdicts
// and the logical table count against the interpreted pipeline, for every
// join abstraction.
func TestFuseGwLBEquivalence(t *testing.T) {
	g := usecases.Generate(8, 4, 11)
	rng := rand.New(rand.NewSource(5))
	for _, rep := range []usecases.Representation{
		usecases.RepUniversal, usecases.RepGoto, usecases.RepMetadata, usecases.RepRematch,
	} {
		p, err := g.Build(rep)
		if err != nil {
			t.Fatalf("%s: %v", rep, err)
		}
		prog, err := Fuse(p)
		if err != nil {
			t.Fatalf("%s: Fuse: %v", rep, err)
		}
		if len(prog.Rules) == 0 {
			t.Fatalf("%s: no fused rules", rep)
		}
		for trial := 0; trial < 500; trial++ {
			rec := gwlbRecord(rng, g)
			want := refInterpret(t, p, cloneRec(rec))
			got := evalFused(prog, rec)
			if got.drop != want.drop || (!want.drop && got.port != want.port) {
				t.Fatalf("%s trial %d: fused=%+v interpreted=%+v rec=%v", rep, trial, got, want, rec)
			}
			if got.tables != want.tables {
				t.Fatalf("%s trial %d: fused depth %d, interpreted %d", rep, trial, got.tables, want.tables)
			}
		}
	}
}

func cloneRec(rec map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(rec))
	for k, v := range rec {
		out[k] = v
	}
	return out
}

// A metadata join must be resolved statically: the fused program may not
// keep any metadata column.
func TestFuseResolvesMetadataStatically(t *testing.T) {
	g := usecases.Generate(4, 2, 3)
	p, err := g.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Fuse(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range prog.Cols {
		if mat.IsLinkAttr(c.Name) {
			t.Fatalf("metadata column %q survived fusion", c.Name)
		}
	}
}

// The set-field/rematch interaction must take datapath semantics: a
// downstream match on a rewritten field is resolved against the written
// constant. Stage 0 rewrites vlan to 5; stage 1 matches vlan=7. No packet
// may reach stage 1's entry, whatever its original vlan.
func TestFuseRematchUsesWrittenValue(t *testing.T) {
	t0 := mat.New("rewrite", mat.Schema{mat.F(packet.FieldVLAN, 12), mat.A("mod_vlan", 12)})
	t0.Add(mat.Any(), mat.Exact(5, 12))
	t1 := mat.New("rematch", mat.Schema{mat.F(packet.FieldVLAN, 12), mat.A("out", 16)})
	t1.Add(mat.Exact(7, 12), mat.Exact(1, 16))
	p := &mat.Pipeline{Name: "hazard", Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	prog, err := Fuse(p)
	if err != nil {
		t.Fatal(err)
	}
	for vlan := uint64(0); vlan < 16; vlan++ {
		got := evalFused(prog, map[string]uint64{packet.FieldVLAN: vlan})
		if !got.drop {
			t.Fatalf("vlan=%d: fused must drop (stage 1 re-matches the rewritten value 5), got %+v", vlan, got)
		}
	}
	// The written value 5 itself reaching a vlan=5 matcher must pass.
	t1.Entries = nil
	t1.Add(mat.Exact(5, 12), mat.Exact(9, 16))
	prog, err = Fuse(p)
	if err != nil {
		t.Fatal(err)
	}
	got := evalFused(prog, map[string]uint64{packet.FieldVLAN: 0})
	if got.drop || got.port != 9 {
		t.Fatalf("rewritten vlan=5 must match the vlan=5 entry: %+v", got)
	}
}

// A generic mod_<field> rewrite is a write like the legacy aliases: stage
// 0 rewrites ip_src to 10.9.9.9 and stage 1 re-matches ip_src, so every
// packet takes stage 1's 10.9.9.9 entry, whatever its original ip_src.
func TestFuseRematchGenericRewrite(t *testing.T) {
	written := mat.IPv4Prefix("10.9.9.9", 32)
	t0 := mat.New("rewrite", mat.Schema{mat.F(packet.FieldIPDst, 32), mat.A("mod_"+packet.FieldIPSrc, 32)})
	t0.Add(mat.Any(), written)
	t1 := mat.New("rematch", mat.Schema{mat.F(packet.FieldIPSrc, 32), mat.A("out", 16)})
	t1.Add(written, mat.Exact(1, 16))
	t1.Add(mat.IPv4Prefix("192.168.0.0", 16), mat.Exact(2, 16))
	p := &mat.Pipeline{Name: "generic-rewrite", Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	prog, err := Fuse(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"10.9.9.9", "192.168.1.1", "172.16.0.1"} {
		rec := map[string]uint64{packet.FieldIPSrc: mat.IPv4Prefix(src, 32).Bits, packet.FieldIPDst: 7}
		want := refInterpret(t, p, cloneRec(rec))
		got := evalFused(prog, rec)
		if got.drop || got.port != 1 || got != want {
			t.Fatalf("ip_src %s: fused %+v, interpreted %+v; want out 1 (the written ip_src)", src, got, want)
		}
	}
}

// dec_ttl followed by a downstream TTL match is unfusable (the decremented
// value is not a compile-time constant) and must be declined, not fused
// wrongly.
func TestFuseDeclinesTTLMatchAfterDec(t *testing.T) {
	t0 := mat.New("dec", mat.Schema{mat.F(packet.FieldIPDst, 32), mat.A("mod_ttl", 8)})
	t0.Add(mat.Any(), mat.Exact(0, 8))
	t1 := mat.New("ttl", mat.Schema{mat.F(packet.FieldTTL, 8), mat.A("out", 16)})
	t1.Add(mat.Exact(63, 8), mat.Exact(1, 16))
	p := &mat.Pipeline{Name: "ttl-hazard", Stages: []mat.Stage{
		{Table: t0, Next: 1, MissDrop: true},
		{Table: t1, Next: -1, MissDrop: true},
	}}
	if _, err := Fuse(p); err == nil {
		t.Fatal("expected ErrUnfusable")
	} else if !IsUnfusable(err) {
		t.Fatalf("want ErrUnfusable, got %v", err)
	}
}

// Goto cycles must be declined rather than enumerated forever.
func TestFuseDeclinesCycle(t *testing.T) {
	t0 := mat.New("loop", mat.Schema{mat.F(packet.FieldVLAN, 12), mat.A(mat.GotoAttr, 16)})
	t0.Add(mat.Any(), mat.Exact(0, 16))
	p := &mat.Pipeline{Name: "cycle", Stages: []mat.Stage{{Table: t0, Next: -1, MissDrop: true}}}
	if _, err := Fuse(p); err == nil || !IsUnfusable(err) {
		t.Fatalf("want ErrUnfusable, got %v", err)
	}
}

// Fused rule lists are total: every record matches some rule.
func TestFuseTotality(t *testing.T) {
	g := usecases.Generate(6, 3, 9)
	rng := rand.New(rand.NewSource(13))
	for _, rep := range []usecases.Representation{usecases.RepGoto, usecases.RepMetadata, usecases.RepRematch} {
		p, err := g.Build(rep)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Fuse(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			rec := map[string]uint64{
				packet.FieldIPSrc:  rng.Uint64() & 0xFFFFFFFF,
				packet.FieldIPDst:  rng.Uint64() & 0xFFFFFFFF,
				packet.FieldTCPDst: rng.Uint64() & 0xFFFF,
			}
			if got := evalFused(prog, rec); got.tables < 0 {
				t.Fatalf("%s: record %v matched no fused rule", rep, rec)
			}
		}
	}
}
