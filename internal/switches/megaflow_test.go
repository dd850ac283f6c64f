package switches

import (
	"math/rand"
	"testing"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

func TestMegaflowCoversMicroflows(t *testing.T) {
	// Distinct microflows that agree on the traced bits must share one
	// megaflow: after one slow-path traversal per pipeline path, further
	// new microflows hit the megaflow layer, not the slow path.
	g := usecases.Generate(10, 8, 3)
	s := NewOVS()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(p); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	// Phase 1: one packet per (service, backend prefix) path.
	for _, svc := range g.Services {
		for b := 0; b < 8; b++ {
			src := uint32(b)<<29 | rng.Uint32()>>3
			if _, err := s.Process(packet.TCP4(1, 2, src, svc.VIP, uint16(rng.Intn(60000)), svc.Port)); err != nil {
				t.Fatal(err)
			}
		}
	}
	slowAfterWarm := s.Misses.Load()
	mfAfterWarm := s.MegaflowCount()
	if mfAfterWarm == 0 {
		t.Fatalf("no megaflows installed")
	}
	// There are at most N×M distinct paths (plus none missed here).
	if mfAfterWarm > 10*8 {
		t.Errorf("megaflows = %d, want <= 80 paths", mfAfterWarm)
	}

	// Phase 2: thousands of NEW microflows (fresh src low bits and
	// ports). No new slow-path traversals may happen.
	for i := 0; i < 5000; i++ {
		svc := g.Services[rng.Intn(len(g.Services))]
		src := rng.Uint32()
		if _, err := s.Process(packet.TCP4(1, 2, src, svc.VIP, uint16(rng.Intn(60000)), svc.Port)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Misses.Load() != slowAfterWarm {
		t.Errorf("new microflows took the slow path: %d -> %d misses", slowAfterWarm, s.Misses.Load())
	}
	if s.MegaHits.Load() == 0 {
		t.Errorf("megaflow layer never hit")
	}
}

func TestMegaflowVerdictsAgreeWithSlowPath(t *testing.T) {
	g := usecases.Generate(8, 4, 5)
	s := NewOVS()
	p, err := g.Build(usecases.RepMetadata)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(p); err != nil {
		t.Fatal(err)
	}
	ref, err := dataplane.Compile(p, dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	refCtx := ref.NewCtx()

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		var dst uint32
		var port uint16
		if rng.Intn(4) > 0 {
			svc := g.Services[rng.Intn(len(g.Services))]
			dst, port = svc.VIP, svc.Port
		} else {
			dst, port = rng.Uint32(), uint16(rng.Intn(1<<16)) // mostly misses
		}
		pkt := packet.TCP4(1, 2, rng.Uint32(), dst, uint16(rng.Intn(1<<16)), port)
		got, err := s.Process(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Process(packet.TCP4(1, 2, pkt.IPSrc, pkt.IPDst, pkt.SrcPort, pkt.DstPort), refCtx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Drop != want.Drop || (!got.Drop && got.Port != want.Port) {
			t.Fatalf("packet %d: cached verdict (%v,%d) != slow path (%v,%d)",
				i, got.Drop, got.Port, want.Drop, want.Port)
		}
	}
	// The megaflow layer must have absorbed the random microflows.
	if s.MegaHits.Load() == 0 {
		t.Errorf("megaflow layer idle: emc=%d mega=%d slow=%d", s.Hits.Load(), s.MegaHits.Load(), s.Misses.Load())
	}
	// A repeated microflow hits the EMC on its second appearance.
	repeat := packet.TCP4(1, 2, 42, g.Services[0].VIP, 4242, g.Services[0].Port)
	if _, err := s.Process(repeat); err != nil {
		t.Fatal(err)
	}
	emcBefore := s.Hits.Load()
	if _, err := s.Process(packet.TCP4(1, 2, 42, g.Services[0].VIP, 4242, g.Services[0].Port)); err != nil {
		t.Fatal(err)
	}
	if s.Hits.Load() != emcBefore+1 {
		t.Errorf("repeated microflow missed the EMC")
	}
}

func TestMegaflowFlushedOnUpdate(t *testing.T) {
	g := usecases.Fig1()
	s := NewOVS()
	p, _ := g.Build(usecases.RepUniversal)
	if err := s.Install(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(packet.TCP4(1, 2, 3, 0xC0000201, 4, 80)); err != nil {
		t.Fatal(err)
	}
	if s.MegaflowCount() == 0 {
		t.Fatalf("no megaflow installed")
	}
	if err := s.ApplyMods(1); err != nil {
		t.Fatal(err)
	}
	if s.MegaflowCount() != 0 {
		t.Errorf("megaflows survived revalidation")
	}
}

func TestTraceMasksAreMinimal(t *testing.T) {
	// The gwlb goto pipeline consults ip_dst (exact), tcp_dst (exact)
	// and ip_src only up to the backend prefix length: the trace must
	// reflect that, so one megaflow covers a whole /1 of clients.
	g := usecases.Fig1()
	p, err := g.Build(usecases.RepGoto)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Compile(p, dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	tr := dataplane.NewTrace()
	view, err := packet.DefaultDecoder().Parse(packet.TCP4(1, 2, 0x01000000, 0xC0000201, 1234, 80).Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.ProcessViewTraced(view, dp.NewCtx(), tr); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		slot int
		want uint8
		why  string
	}{
		{packet.IDIPSrc, 1, "tenant-1 split"},
		{packet.IDIPDst, 32, "exact"},
		{packet.IDTCPDst, 16, "exact"},
	} {
		if got, ok := tr.PLen(c.slot); !ok || got != c.want {
			t.Errorf("slot %d traced to /%d (consulted %v), want /%d (%s)", c.slot, got, ok, c.want, c.why)
		}
	}
	// Fields no table consults must stay wildcarded.
	if _, ok := tr.PLen(packet.IDEthSrc); ok {
		t.Errorf("untouched field eth_src traced")
	}
}
