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

// TestOVSSchemaModeBypassesCaches checks the honest-modeling contract:
// in schema mode every frame is a slow-path traversal — the EMC and
// megaflow layers cannot key on non-canonical fields.
func TestOVSSchemaModeBypassesCaches(t *testing.T) {
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOVS(WithSchema(dec))
	if err := s.Install(vxlanTenantPipeline(t, dec, 4)); err != nil {
		t.Fatal(err)
	}
	f := vxlanFrame(t, dec, 1001)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if misses, _ := st.Counter("slow_misses"); misses != n {
		t.Fatalf("slow_misses = %d, want %d (schema mode must bypass caches)", misses, n)
	}
	emc, _ := st.Counter("emc_hits")
	mega, _ := st.Counter("megaflow_hits")
	if emc != 0 || mega != 0 {
		t.Fatalf("cache hits in schema mode: emc=%d megaflow=%d", emc, mega)
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
