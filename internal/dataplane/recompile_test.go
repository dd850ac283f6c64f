package dataplane

import (
	"testing"

	"manorm/internal/mat"
)

// verdictsOf runs a fixed probe set through a compiled pipeline.
func verdictsOf(t *testing.T, dp *Pipeline) []Verdict {
	t.Helper()
	ctx := dp.NewCtx()
	var out []Verdict
	for _, src := range []uint32{0, 0x40000001, 0x80000000, 0xFFFFFFFF} {
		for _, dst := range []uint32{0xC0000201, 0xC0000202, 0xC0000203, 0xC0000204} {
			for _, port := range []uint16{80, 443, 22, 8080} {
				v, err := dp.Process(tcpTo(src, dst, port), ctx)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// TestRecompileSharesCleanTables: the new snapshot holds a fresh table for
// the dirty stage only; every clean stage is the very *Table of the
// previous snapshot, counters included, and forwards like a from-scratch
// compile of the changed program.
func TestRecompileSharesCleanTables(t *testing.T) {
	mp := fig1b()
	old, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Process(tcpTo(1, 0xC0000201, 80), old.NewCtx()); err != nil {
		t.Fatal(err)
	}
	// Tenant 1 moves to port 8080: one first-stage row changes.
	mp.Stages[0].Table.Entries[0][1] = mat.Exact(8080, 16)
	got, err := old.Recompile(mp, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got == old || got.tables[0] == old.tables[0] {
		t.Fatalf("dirty stage was not recompiled into a new snapshot")
	}
	for si := 1; si < len(old.tables); si++ {
		if got.tables[si] != old.tables[si] {
			t.Errorf("clean stage %d was recompiled", si)
		}
	}
	if n := got.Counter(1, 0); n != 1 {
		t.Errorf("clean stage's counter = %d across the swap, want 1", n)
	}
	if n := got.Counter(0, 0); n != 0 {
		t.Errorf("recompiled stage's counter = %d, want a restart at 0", n)
	}
	fresh, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	want, have := verdictsOf(t, fresh), verdictsOf(t, got)
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("probe %d: recompiled %+v, from scratch %+v", i, have[i], want[i])
		}
	}
	// The old snapshot is untouched: in-flight workers finish on it.
	if v, _ := old.Process(tcpTo(1, 0xC0000201, 80), old.NewCtx()); v.Drop {
		t.Errorf("previous snapshot changed under its workers")
	}
}

// TestRecompileExtendsMetaRegisters: a metadata tag first written by an
// entry added after the compile gets the next free register; the ones
// already assigned keep theirs, so shared clean tables stay valid.
func TestRecompileExtendsMetaRegisters(t *testing.T) {
	mp := fig1cMeta()
	tag2 := mat.MetaPrefix + "_late"
	// A second tag column the first stage writes and nothing reads: with
	// no entries yet, the compile never meets it.
	t0 := mp.Stages[0].Table
	t0.Schema = append(t0.Schema, mat.A(tag2, 8))
	rows := t0.Entries
	t0.Entries = nil
	old, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(old.NewCtx().meta); n != 1 {
		t.Fatalf("compile of the empty first stage assigned %d registers, want 1", n)
	}
	for _, e := range rows {
		t0.Entries = append(t0.Entries, append(e.Clone(), mat.Exact(7, 8)))
	}
	got, err := old.Recompile(mp, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.NewCtx().meta); n != 2 {
		t.Fatalf("recompile left %d registers, want 2", n)
	}
	for name, idx := range old.metaIdx {
		if got.metaIdx[name] != idx {
			t.Errorf("register of %s moved from %d to %d", name, idx, got.metaIdx[name])
		}
	}
	if len(old.metaIdx) != 1 {
		t.Errorf("recompile wrote into the previous snapshot's register map: %v", old.metaIdx)
	}
	fresh, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	want, have := verdictsOf(t, fresh), verdictsOf(t, got)
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("probe %d: recompiled %+v, from scratch %+v", i, have[i], want[i])
		}
	}
}

// TestRecompileFusedIsAFullCompile: fusion is install-time-only, so a
// fused program recompiles whole — and still follows the change.
func TestRecompileFusedIsAFullCompile(t *testing.T) {
	mp := fig1b()
	mp.Fused = true
	old, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	mp.Stages[0].Table.Entries[0][1] = mat.Exact(8080, 16)
	got, err := old.Recompile(mp, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fused() == nil || got.tables[0] == old.tables[0] {
		t.Fatalf("fused recompile did not produce a new fused program")
	}
	ctx := got.NewCtx()
	if v, _ := got.Process(tcpTo(1, 0xC0000201, 8080), ctx); v.Drop || v.Port != 1 {
		t.Errorf("moved service not forwarded: %+v", v)
	}
	if v, _ := got.Process(tcpTo(1, 0xC0000201, 80), ctx); !v.Drop {
		t.Errorf("old port still forwarded: %+v", v)
	}
}

func TestRecompileRejectsWhatCompileRejects(t *testing.T) {
	mp := fig1b()
	old, err := Compile(mp, AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Recompile(mp, []int{len(mp.Stages)}); err == nil {
		t.Errorf("dirty stage out of range accepted")
	}
	short := mp.Clone()
	short.Stages = short.Stages[:2]
	if _, err := old.Recompile(short, []int{0}); err == nil {
		t.Errorf("program with a different stage count accepted")
	}
	mp.Stages[0].Table.Entries[0][2] = mat.Exact(99, 8) // goto out of range
	if _, err := old.Recompile(mp, []int{0}); err == nil {
		t.Errorf("invalid dirty stage accepted")
	}
}
