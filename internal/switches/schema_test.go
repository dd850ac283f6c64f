package switches

import (
	"testing"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
)

// vxlanTenantPipeline builds a one-stage VXLAN program: exact-match the
// 24-bit VNI, forward to a per-tenant port, drop unknown tenants.
func vxlanTenantPipeline(t *testing.T, dec *packet.Decoder, tenants int) *mat.Pipeline {
	t.Helper()
	b := packet.NewBinder(dec.Schema())
	tab := mat.New("vxlan_tenants", append(b.Columns(packet.FieldVXLANVNI),
		mat.Attr{Name: "out", Kind: mat.Action, Width: 16}))
	tab.Provenance = dec.Schema().Name
	for i := 0; i < tenants; i++ {
		tab.Entries = append(tab.Entries, mat.Entry{
			mat.Exact(uint64(1000+i), 24),
			mat.Exact(uint64(10+i), 16),
		})
	}
	return &mat.Pipeline{
		Name:   "vxlan_tenants",
		Start:  0,
		Stages: []mat.Stage{{Table: tab, Next: -1, MissDrop: true}},
	}
}

// vxlanFrame marshals a full eth/ipv4/udp/vxlan/inner_eth frame carrying
// the given VNI.
func vxlanFrame(t *testing.T, dec *packet.Decoder, vni uint64) []byte {
	t.Helper()
	v := dec.NewView()
	for _, h := range []string{"eth", "ipv4", "udp", "vxlan", "inner_eth"} {
		if !v.MarkPresentName(h) {
			t.Fatalf("unknown header %q", h)
		}
	}
	v.SetName("eth_dst", 0x0a0b0c0d0e0f)
	v.SetName("eth_type", packet.EtherTypeIPv4)
	v.SetName("ip_ttl", 64)
	v.SetName("ip_proto", packet.ProtoUDP)
	v.SetName("udp_dst", packet.UDPPortVXLAN)
	v.SetName("vxlan_flags", 0x08)
	v.SetName(packet.FieldVXLANVNI, vni)
	v.SetName(packet.FieldInnerEthDst, 0x112233445566)
	return v.Marshal(nil)
}

// TestSwitchesForwardVXLANSchema drives a VXLAN tenant program through
// all four switch models in schema mode: known VNIs forward to their
// tenant port on the frame, batch and dedicated-worker paths; unknown
// VNIs and truncated frames drop.
func TestSwitchesForwardVXLANSchema(t *testing.T) {
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 8
	p := vxlanTenantPipeline(t, dec, tenants)

	frames := make([][]byte, 0, tenants+2)
	want := make([]dataplane.Verdict, 0, tenants+2)
	for i := 0; i < tenants; i++ {
		frames = append(frames, vxlanFrame(t, dec, uint64(1000+i)))
		want = append(want, dataplane.Verdict{Port: uint16(10 + i)})
	}
	frames = append(frames, vxlanFrame(t, dec, 9999)) // unknown tenant
	want = append(want, dataplane.Verdict{Drop: true})
	frames = append(frames, frames[0][:7]) // truncated frame
	want = append(want, dataplane.Verdict{Drop: true})

	models := []Switch{
		NewOVS(WithSchema(dec)),
		NewESwitch(WithSchema(dec)),
		NewLagopus(WithSchema(dec)),
		NewNoviFlow(WithSchema(dec)),
	}
	for _, sw := range models {
		if err := sw.Install(p); err != nil {
			t.Fatalf("%s: %v", sw.Name(), err)
		}
		check := func(path string, got dataplane.Verdict, i int) {
			t.Helper()
			w := want[i]
			if got.Drop != w.Drop || (!got.Drop && got.Port != w.Port) {
				t.Fatalf("%s/%s: frame %d verdict (%v,%d) != want (%v,%d)",
					sw.Name(), path, i, got.Drop, got.Port, w.Drop, w.Port)
			}
		}
		// Pooled frame path, twice so pooled workers get reused warm.
		for pass := 0; pass < 2; pass++ {
			for i, f := range frames {
				v, err := sw.ProcessFrame(f)
				if err != nil {
					t.Fatalf("%s: frame %d: %v", sw.Name(), i, err)
				}
				check("frame", v, i)
			}
		}
		// Batch path.
		out := make([]dataplane.Verdict, len(frames))
		if err := sw.ProcessBatch(frames, out); err != nil {
			t.Fatalf("%s: batch: %v", sw.Name(), err)
		}
		for i, v := range out {
			check("batch", v, i)
		}
		// Dedicated worker path.
		w := sw.NewWorker()
		for i, f := range frames {
			v, err := w.ProcessFrame(f)
			if err != nil {
				t.Fatalf("%s: worker frame %d: %v", sw.Name(), i, err)
			}
			check("worker", v, i)
		}
	}
}

// cacheChains lists, per generic shipped schema, a full header chain with
// the select values that steer a frame down it, the field the test
// program keys on, and a field an Update starts matching.
var cacheChains = []struct {
	schema   string
	headers  []string
	selects  map[string]uint64
	key, add string
}{
	{packet.SchemaVXLAN, []string{"eth", "ipv4", "udp", "vxlan", "inner_eth"},
		map[string]uint64{"eth_type": packet.EtherTypeIPv4, "ip_proto": packet.ProtoUDP, "udp_dst": packet.UDPPortVXLAN},
		packet.FieldVXLANVNI, packet.FieldInnerEthDst},
	{packet.SchemaMPLS, []string{"eth", "mpls", "ipv4"},
		map[string]uint64{"eth_type": packet.EtherTypeMPLS, packet.FieldMPLSBoS: 1},
		packet.FieldMPLSLabel, "ip_dst"},
	{packet.SchemaGTPU, []string{"eth", "ipv4", "udp", "gtpu", "inner_ipv4"},
		map[string]uint64{"eth_type": packet.EtherTypeIPv4, "ip_proto": packet.ProtoUDP, "udp_dst": packet.UDPPortGTPU, "gtpu_type": packet.GTPMsgGPDU},
		packet.FieldGTPUTEID, packet.FieldInnerIPDst},
}

// TestOVSCachesOnEverySchema: the OVS cache hierarchy keys on the
// installed program's match slots, so it works on every schema. On a warm
// second pass only the distinct flows have taken the slow path, and the
// verdicts equal the cold pass and the slow pipeline's own ProcessFrames.
// An Update whose program matches a new field re-keys the shard: a frame
// differing only in that field then misses.
func TestOVSCachesOnEverySchema(t *testing.T) {
	for _, c := range cacheChains {
		t.Run(c.schema, func(t *testing.T) {
			dec, err := packet.BuiltinDecoder(c.schema)
			if err != nil {
				t.Fatal(err)
			}
			frame := func(key, add, noise uint64) []byte {
				v := dec.NewView()
				for _, h := range c.headers {
					v.MarkPresentName(h)
				}
				for f, x := range c.selects {
					v.SetName(f, x)
				}
				v.SetName(c.key, key)
				v.SetName(c.add, add)
				v.SetName("eth_src", noise) // matched by no stage
				return v.Marshal(nil)
			}
			b := packet.NewBinder(dec.Schema())
			table := func(field string, entries ...[2]uint64) *mat.Table {
				tab := mat.New(field, append(b.Columns(field), mat.Attr{Name: "out", Kind: mat.Action, Width: 16}))
				tab.Provenance = c.schema
				for _, e := range entries {
					tab.Add(mat.Exact(e[0], b.Width(field)), mat.Exact(e[1], 16))
				}
				return tab
			}
			// Stage 0 forwards four keys; stage 1 — a placeholder over the
			// same key until the Update — may override the port.
			prog := func(stage1 *mat.Table) *mat.Pipeline {
				return &mat.Pipeline{Name: "cache", Start: 0, Stages: []mat.Stage{
					{Table: table(c.key, [2]uint64{1000, 10}, [2]uint64{1001, 11}, [2]uint64{1002, 12}, [2]uint64{1003, 13}), Next: 1, MissDrop: true},
					{Table: stage1, Next: -1},
				}}
			}
			p := prog(table(c.key))

			// Five distinct flows (four forwarded keys, one unknown), each
			// sent three times with a different value in an unmatched field.
			var frames [][]byte
			for noise := uint64(0); noise < 3; noise++ {
				for _, key := range []uint64{1000, 1001, 1002, 1003, 9999} {
					frames = append(frames, frame(key, 7, noise))
				}
			}
			const flows = 5

			s := NewOVS(WithSchema(dec))
			if err := s.Install(p); err != nil {
				t.Fatal(err)
			}
			w := s.NewWorker()
			cold := make([]dataplane.Verdict, len(frames))
			warm := make([]dataplane.Verdict, len(frames))
			if err := w.ProcessBatch(frames, cold); err != nil {
				t.Fatal(err)
			}
			if err := w.ProcessBatch(frames, warm); err != nil {
				t.Fatal(err)
			}
			dp, err := dataplane.Compile(p, dataplane.AutoTemplates, dataplane.WithSchema(dec.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			slow := make([]dataplane.Verdict, len(frames))
			if err := dp.ProcessFrames(frames, dataplane.NewFrameBatch(dec), slow, nil); err != nil {
				t.Fatal(err)
			}
			for i := range frames {
				if cold[i].Drop != slow[i].Drop || cold[i].Port != slow[i].Port ||
					warm[i].Drop != slow[i].Drop || warm[i].Port != slow[i].Port {
					t.Fatalf("frame %d: cold %+v, warm %+v, slow path %+v", i, cold[i], warm[i], slow[i])
				}
			}
			st := s.Stats()
			if misses, _ := st.Counter("slow_misses"); misses != flows {
				t.Fatalf("slow_misses = %d after a cold and a warm pass, want %d distinct flows", misses, flows)
			}
			if emc, _ := st.Counter("emc_hits"); emc != uint64(2*len(frames)-flows) {
				t.Fatalf("emc_hits = %d, want %d", emc, 2*len(frames)-flows)
			}

			// The Update makes stage 1 match c.add: frames that shared a
			// flow on the old key layout now differ.
			if err := s.Update(prog(table(c.add, [2]uint64{8, 99})), []int{1}); err != nil {
				t.Fatal(err)
			}
			pair := [][]byte{frame(1000, 7, 0), frame(1000, 8, 0)}
			out := make([]dataplane.Verdict, 2)
			if err := w.ProcessBatch(pair, out); err != nil {
				t.Fatal(err)
			}
			if out[0].Port != 10 || out[1].Port != 99 {
				t.Fatalf("after the Update: ports %d, %d, want 10, 99", out[0].Port, out[1].Port)
			}
			if misses, _ := s.Stats().Counter("slow_misses"); misses != flows+2 {
				t.Fatalf("slow_misses = %d after the Update, want %d: the new field must split the flow", misses, flows+2)
			}
		})
	}
}

// TestSchemaInstallRejectsForeignProvenance: a switch configured for the
// VXLAN schema must refuse a pipeline compiled from another schema's
// tables (provenance mismatch surfaces at Install, not as silent
// misforwarding).
func TestSchemaInstallRejectsForeignProvenance(t *testing.T) {
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	p := vxlanTenantPipeline(t, dec, 2)
	p.Stages[0].Table.Provenance = packet.SchemaGTPU
	for _, sw := range []Switch{
		NewOVS(WithSchema(dec)),
		NewESwitch(WithSchema(dec)),
		NewLagopus(WithSchema(dec)),
		NewNoviFlow(WithSchema(dec)),
	} {
		if err := sw.Install(p); err == nil {
			t.Fatalf("%s: Install accepted a gtpu-provenance table on a vxlan-schema switch", sw.Name())
		}
	}
}

// TestSchemaWorkerZeroAlloc pins the schema hot path: a warmed dedicated
// worker forwards schema frames without allocating, whether the frame is
// whole, cut below the first header (a drop) or cut mid-graph (forwarded
// on the headers it has). Lagopus is excluded: its per-packet generic
// record lift (view.Record, a map build) is the model's deliberate
// interpretive overhead, not an accident of the schema path.
func TestSchemaWorkerZeroAlloc(t *testing.T) {
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []Switch{
		NewOVS(WithSchema(dec)),
		NewESwitch(WithSchema(dec)),
		NewNoviFlow(WithSchema(dec)),
	} {
		if err := sw.Install(vxlanTenantPipeline(t, dec, 4)); err != nil {
			t.Fatalf("%s: %v", sw.Name(), err)
		}
		w := sw.NewWorker()
		f := vxlanFrame(t, dec, 1002)
		if _, err := w.ProcessFrame(f); err != nil { // warm: refresh + ctx alloc
			t.Fatalf("%s: %v", sw.Name(), err)
		}
		below, mid := f[:packet.EthHeaderLen-1], f[:packet.EthHeaderLen+9]
		allocs := testing.AllocsPerRun(200, func() {
			for _, frame := range [][]byte{f, below, mid} {
				if _, err := w.ProcessFrame(frame); err != nil {
					t.Fatalf("%s: %v", sw.Name(), err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: schema worker frame path allocates %.1f/op, want 0", sw.Name(), allocs)
		}
	}
}
