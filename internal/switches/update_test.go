package switches

import (
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// movePort rewrites service svc's first-stage row of a goto pipeline to a
// new TCP port, as a committed port-change intent leaves it.
func movePort(p *mat.Pipeline, svc int, port uint16) {
	p.Stages[0].Table.Entries[svc][1] = mat.Exact(uint64(port), 16)
}

// TestUpdateFollowsTheProgram: on every model, interpreted and fused, an
// Update of the dirty stage makes the change visible, leaves the rest of
// the program forwarding as before, and keeps the packet counts of the
// stages it did not touch (a fused program is recompiled whole: its
// counters restart).
func TestUpdateFollowsTheProgram(t *testing.T) {
	g := usecases.Fig1()
	for _, rep := range []usecases.Representation{usecases.RepGoto, usecases.RepFused} {
		for _, sw := range allSwitches() {
			p, err := g.Build(rep)
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Update(p, []int{0}); err == nil {
				t.Errorf("%s/%s: Update of an unprogrammed switch succeeded", sw.Name(), rep)
			}
			if err := sw.Install(p); err != nil {
				t.Fatal(err)
			}
			// Warm the model (and OVS's caches) on both services.
			for i := 0; i < 3; i++ {
				for _, pkt := range []*packet.Packet{
					packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80),
					packet.TCP4(1, 2, 0x01000000, 0xC0000203, 1234, 22),
				} {
					if v, err := sw.Process(pkt); err != nil || v.Drop {
						t.Fatalf("%s/%s: before the update: %+v, %v", sw.Name(), rep, v, err)
					}
				}
			}
			movePort(p, 0, 8080)
			if err := sw.Update(p, []int{0}); err != nil {
				t.Fatalf("%s/%s: %v", sw.Name(), rep, err)
			}
			for _, c := range []struct {
				port uint16
				drop bool
			}{{80, true}, {8080, false}} {
				v, err := sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, c.port))
				if err != nil || v.Drop != c.drop || (!c.drop && v.Port != 1) {
					t.Errorf("%s/%s: tenant 1 on port %d after the update: %+v, %v", sw.Name(), rep, c.port, v, err)
				}
			}
			if v, err := sw.Process(packet.TCP4(1, 2, 0x01000000, 0xC0000203, 1234, 22)); err != nil || v.Drop || v.Port != 6 {
				t.Errorf("%s/%s: untouched tenant 3 after the update: %+v, %v", sw.Name(), rep, v, err)
			}
			if rep == usecases.RepFused {
				continue
			}
			// Tenant 3's LB stage was clean: its count spans the swap. OVS
			// counts slow-path traversals only (one before the update, one
			// after the flush); the other models count every packet.
			want := uint64(4)
			if sw.Name() == "ovs" {
				want = 2
			}
			if got := sw.Counters(3)[0]; got != want {
				t.Errorf("%s: clean stage counted %d packets across the update, want %d", sw.Name(), got, want)
			}
			if got := sw.Counters(0); len(got) != 3 || got[0]+got[1]+got[2] > 2 {
				t.Errorf("%s: recompiled stage's counters %v did not restart", sw.Name(), got)
			}
		}
	}
}

// TestOVSUpdateFlushesCachesKeepsStatistics: an Update revalidates every
// shard's caches like ApplyMods does, but unlike Install it is not a
// reset: the layer-hit statistics go on counting.
func TestOVSUpdateFlushesCachesKeepsStatistics(t *testing.T) {
	g := usecases.Fig1()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOVS()
	if err := s.Install(p); err != nil {
		t.Fatal(err)
	}
	pkt := func() *packet.Packet { return packet.TCP4(1, 2, 0x01000000, 0xC0000203, 1234, 22) }
	for i := 0; i < 3; i++ {
		if _, err := s.Process(pkt()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Hits.Load() != 2 || s.Misses.Load() != 1 || s.CacheSize() != 1 {
		t.Fatalf("warm-up: hits %d misses %d emc %d", s.Hits.Load(), s.Misses.Load(), s.CacheSize())
	}
	movePort(p, 0, 8080)
	if err := s.Update(p, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(pkt()); err != nil {
		t.Fatal(err)
	}
	if s.Hits.Load() != 2 || s.Misses.Load() != 2 {
		t.Errorf("after the update: hits %d misses %d, want the old 2 hits and a second miss", s.Hits.Load(), s.Misses.Load())
	}
}

// TestNoviFlowUpdateTracksStageEntries: the TCAM gauge follows the dirty
// stage's new size.
func TestNoviFlowUpdateTracksStageEntries(t *testing.T) {
	g := usecases.Fig1()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	s := NewNoviFlow()
	if err := s.Install(p); err != nil {
		t.Fatal(err)
	}
	lb := p.Stages[2].Table
	lb.Entries = append(lb.Entries, mat.Entry{mat.Prefix(0xC0000000, 3, 32), mat.Exact(9, 16)})
	if err := s.Update(p, []int{2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Gauges["tcam_stage2_entries"]; got != 4 {
		t.Errorf("tcam_stage2_entries = %v after adding a fourth row", got)
	}
	if got := s.LargestStageEntries(); got != 4 {
		t.Errorf("largest stage = %d, want 4", got)
	}
}
