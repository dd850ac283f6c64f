package trafficgen

import (
	"testing"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/usecases"
)

func TestGwLBTrafficHitsServices(t *testing.T) {
	g := usecases.Generate(20, 8, 7)
	s := GwLB(g, 4096, 1.0, 1)
	if s.Len() != 4096 {
		t.Fatalf("Len = %d", s.Len())
	}
	uni, err := g.Universal()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Compile(mat.SingleTable(uni), dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	for i := 0; i < s.Len(); i++ {
		v, err := dp.Process(s.Next(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Drop {
			t.Fatalf("hitRatio=1 packet dropped")
		}
	}
}

func TestGwLBTrafficMissRatio(t *testing.T) {
	g := usecases.Generate(10, 4, 7)
	s := GwLB(g, 8192, 0.5, 2)
	uni, _ := g.Universal()
	dp, err := dataplane.Compile(mat.SingleTable(uni), dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	drops := 0
	for i := 0; i < s.Len(); i++ {
		v, err := dp.Process(s.Next(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Drop {
			drops++
		}
	}
	frac := float64(drops) / float64(s.Len())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction = %.2f, want ~0.5", frac)
	}
}

func TestStreamCycles(t *testing.T) {
	g := usecases.Fig1()
	s := GwLB(g, 8, 1.0, 3)
	first := s.Next()
	for i := 0; i < 7; i++ {
		s.Next()
	}
	if s.Next() != first {
		t.Errorf("stream did not cycle")
	}
}

func TestTrafficBackendsAllExercised(t *testing.T) {
	// Uniform client addresses must spread a service's traffic across
	// all of its equally weighted backends.
	g := usecases.Generate(1, 8, 5)
	s := GwLB(g, 8000, 1.0, 4)
	gp, err := g.Goto()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dataplane.Compile(gp, dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	seen := map[uint16]int{}
	for i := 0; i < s.Len(); i++ {
		v, err := dp.Process(s.Next(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Drop {
			seen[v.Port]++
		}
	}
	if len(seen) != 8 {
		t.Fatalf("backends hit = %d, want 8: %v", len(seen), seen)
	}
	for port, n := range seen {
		if n < 500 {
			t.Errorf("backend %d unbalanced: %d/8000", port, n)
		}
	}
}

func TestL3Traffic(t *testing.T) {
	l3 := usecases.GenerateL3(32, 4, 2, 9)
	s := L3(32, 2048, 10)
	dp, err := dataplane.Compile(mat.SingleTable(l3.Table), dataplane.AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dp.NewCtx()
	for i := 0; i < s.Len(); i++ {
		v, err := dp.Process(s.Next(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Drop {
			t.Fatalf("L3 packet missed the routing table")
		}
	}
}

func TestWire64Bytes(t *testing.T) {
	// The measurement traffic is minimum-size frames (the paper's
	// "64 byte-long packets": 60 bytes without the 4-byte FCS).
	g := usecases.Fig1()
	s := GwLB(g, 64, 1.0, 11)
	frames, avg := Wire(s)
	if len(frames) != 64 {
		t.Fatalf("frames = %d", len(frames))
	}
	if avg != 60 {
		t.Errorf("avg frame = %.1f bytes, want 60 (64 with FCS)", avg)
	}
}

func TestDeterminism(t *testing.T) {
	g := usecases.Generate(5, 4, 1)
	a := GwLB(g, 100, 0.9, 42)
	b := GwLB(g, 100, 0.9, 42)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(), b.Next()
		if pa.IPSrc != pb.IPSrc || pa.IPDst != pb.IPDst || pa.DstPort != pb.DstPort {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestShardsDisjointAndComplete(t *testing.T) {
	g := usecases.Generate(5, 4, 3)
	frames, _ := Wire(GwLB(g, 1000, 1.0, 2))
	for _, n := range []int{1, 2, 3, 8, 1000, 5000} {
		shards := Shards(frames, n)
		wantShards := n
		if wantShards > len(frames) {
			wantShards = len(frames)
		}
		if len(shards) != wantShards {
			t.Fatalf("Shards(%d) returned %d shards", n, len(shards))
		}
		total := 0
		seen := map[int]bool{}
		for _, sh := range shards {
			total += len(sh)
			for _, f := range sh {
				// Frames are shared slices: identity check by the backing
				// array's first byte address via index lookup.
				for i := range frames {
					if &frames[i][0] == &f[0] {
						if seen[i] {
							t.Fatalf("frame %d appears in two shards", i)
						}
						seen[i] = true
						break
					}
				}
			}
		}
		if total != len(frames) || len(seen) != len(frames) {
			t.Fatalf("Shards(%d): %d frames in shards, %d distinct, want %d",
				n, total, len(seen), len(frames))
		}
		// Balanced: shard sizes differ by at most one.
		min, max := len(shards[0]), len(shards[0])
		for _, sh := range shards {
			if len(sh) < min {
				min = len(sh)
			}
			if len(sh) > max {
				max = len(sh)
			}
		}
		if max-min > 1 {
			t.Errorf("Shards(%d) unbalanced: min %d max %d", n, min, max)
		}
	}
}
