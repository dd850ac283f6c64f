package dataplane

import (
	"testing"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/telemetry"
)

// schemaKeyPipeline builds a one-stage exact-match program over one
// schema field: n installed keys starting at base, each forwarding to its
// own port, misses dropping.
func schemaKeyPipeline(t testing.TB, dec *packet.Decoder, field string, base uint64, n int) *Pipeline {
	t.Helper()
	b := packet.NewBinder(dec.Schema())
	cols := b.Columns(field)
	width := cols[0].Width
	tab := mat.New("keys", append(cols, mat.Attr{Name: "out", Kind: mat.Action, Width: 16}))
	tab.Provenance = dec.Schema().Name
	for i := 0; i < n; i++ {
		tab.Entries = append(tab.Entries, mat.Entry{
			mat.Exact(base+uint64(i), width),
			mat.Exact(uint64(10+i), 16),
		})
	}
	mp := &mat.Pipeline{Name: "keys", Start: 0,
		Stages: []mat.Stage{{Table: tab, Next: -1, MissDrop: true}}}
	dp, err := Compile(mp, AutoTemplates, WithSchema(dec.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// schemaTestFrame marshals one well-formed frame of the given builtin
// schema carrying the given key field value.
func schemaTestFrame(t testing.TB, dec *packet.Decoder, schema string, key uint64) []byte {
	t.Helper()
	v := dec.NewView()
	mark := func(hdrs ...string) {
		for _, h := range hdrs {
			if !v.MarkPresentName(h) {
				t.Fatalf("unknown header %q in schema %s", h, schema)
			}
		}
	}
	switch schema {
	case packet.SchemaVXLAN:
		mark("eth", "ipv4", "udp", "vxlan", "inner_eth")
		v.SetName("eth_type", packet.EtherTypeIPv4)
		v.SetName("ip_ttl", 64)
		v.SetName("ip_proto", packet.ProtoUDP)
		v.SetName("udp_dst", packet.UDPPortVXLAN)
		v.SetName("vxlan_flags", 0x08)
		v.SetName(packet.FieldVXLANVNI, key)
		v.SetName(packet.FieldInnerEthDst, 0x112233445566)
	case packet.SchemaMPLS:
		mark("eth", "mpls", "ipv4")
		v.SetName("eth_type", packet.EtherTypeMPLS)
		v.SetName(packet.FieldMPLSLabel, key)
		v.SetName(packet.FieldMPLSBoS, 1)
		v.SetName(packet.FieldMPLSTTL, 64)
		v.SetName("ip_ttl", 64)
		v.SetName("ip_proto", packet.ProtoTCP)
	case packet.SchemaGTPU:
		mark("eth", "ipv4", "udp", "gtpu", "inner_ipv4")
		v.SetName("eth_type", packet.EtherTypeIPv4)
		v.SetName("ip_ttl", 64)
		v.SetName("ip_proto", packet.ProtoUDP)
		v.SetName("udp_dst", packet.UDPPortGTPU)
		v.SetName("gtpu_flags", 0x30)
		v.SetName("gtpu_type", packet.GTPMsgGPDU)
		v.SetName(packet.FieldGTPUTEID, key)
		v.SetName("inner_ip_ttl", 64)
		v.SetName("inner_ip_proto", packet.ProtoTCP)
	default:
		t.Fatalf("unhandled schema %s", schema)
	}
	return v.Marshal(nil)
}

// schemaKeyField names the exact-match key of each generic builtin schema.
func schemaKeyField(schema string) string {
	switch schema {
	case packet.SchemaVXLAN:
		return packet.FieldVXLANVNI
	case packet.SchemaMPLS:
		return packet.FieldMPLSLabel
	default:
		return packet.FieldGTPUTEID
	}
}

// defaultFrames marshals a grid of canonical TCP frames over the fig1b
// pipeline's match space (hits and misses).
func defaultFrames() [][]byte {
	var frames [][]byte
	for _, s := range []uint32{0, 0x40000001, 0x80000000, 0xFFFFFFFF} {
		for _, d := range []uint32{0xC0000201, 0xC0000202, 0xC0000203, 0xC0000299} {
			for _, pt := range []uint16{80, 443, 22, 8080} {
				frames = append(frames, tcpTo(s, d, pt).Marshal(nil))
			}
		}
	}
	return frames
}

// TestProcessFramesMatchesViewPathSchemas cross-checks the wire-ingest
// path against the per-frame view path on every generic builtin schema,
// over hit, miss and truncated frames.
func TestProcessFramesMatchesViewPathSchemas(t *testing.T) {
	for _, schema := range []string{packet.SchemaVXLAN, packet.SchemaMPLS, packet.SchemaGTPU} {
		dec, err := packet.BuiltinDecoder(schema)
		if err != nil {
			t.Fatal(err)
		}
		dp := schemaKeyPipeline(t, dec, schemaKeyField(schema), 1000, 4)
		var frames [][]byte
		for k := uint64(998); k < 1006; k++ { // straddles the installed range
			frames = append(frames, schemaTestFrame(t, dec, schema, k))
		}
		frames = append(frames, []byte{0xDE, 0xAD}) // truncated: must drop
		out := make([]Verdict, len(frames))
		if err := dp.ProcessFrames(frames, NewFrameBatch(dec), out, nil); err != nil {
			t.Fatalf("%s: %v", schema, err)
		}
		ctx := dp.NewCtx()
		view := dec.NewView()
		hits := 0
		for i, f := range frames {
			want := Verdict{Drop: true}
			if err := dec.ParseInto(view, f); err == nil {
				want, err = dp.ProcessView(view, ctx)
				if err != nil {
					t.Fatal(err)
				}
			}
			if out[i].Drop != want.Drop || out[i].Port != want.Port {
				t.Fatalf("%s frame %d: frames path {drop:%v port:%d}, view path {drop:%v port:%d}",
					schema, i, out[i].Drop, out[i].Port, want.Drop, want.Port)
			}
			if !out[i].Drop {
				hits++
			}
		}
		if hits != 4 {
			t.Fatalf("%s: %d forwarded frames, want the 4 installed keys", schema, hits)
		}
	}
}

// TestProcessFramesZeroAlloc guards the tentpole allocation contract: the
// steady-state frame path allocates nothing on any builtin schema, with
// one arena per worker at w=1 and w=4 — damaged frames included: each
// batch carries one frame cut below the first header (a counted drop) and
// one cut mid-graph (decoded with fewer headers).
func TestProcessFramesZeroAlloc(t *testing.T) {
	for _, schema := range []string{packet.SchemaDefault, packet.SchemaVXLAN, packet.SchemaMPLS, packet.SchemaGTPU} {
		var dp *Pipeline
		var dec *packet.Decoder
		var frames [][]byte
		if schema == packet.SchemaDefault {
			var err error
			dp, err = Compile(fig1b(), AutoTemplates)
			if err != nil {
				t.Fatal(err)
			}
			frames = defaultFrames()
		} else {
			var err error
			dec, err = packet.BuiltinDecoder(schema)
			if err != nil {
				t.Fatal(err)
			}
			dp = schemaKeyPipeline(t, dec, schemaKeyField(schema), 1000, 4)
			for k := uint64(1000); k < 1008; k++ {
				frames = append(frames, schemaTestFrame(t, dec, schema, k))
			}
		}
		frames = append(frames, frames[0][:packet.EthHeaderLen-1], frames[0][:packet.EthHeaderLen+9])
		for _, workers := range []int{1, 4} {
			arenas := make([]*FrameBatch, workers)
			out := make([]Verdict, len(frames))
			for w := range arenas {
				arenas[w] = NewFrameBatch(dec)
				if err := dp.ProcessFrames(frames, arenas[w], out, nil); err != nil { // warm: ctx provisioning
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				for _, a := range arenas {
					if err := dp.ProcessFrames(frames, a, out, nil); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%s w=%d: ProcessFrames allocates %.1f/op, want 0", schema, workers, allocs)
			}
			if trunc, _, _ := arenas[0].Drops(); trunc == 0 {
				t.Fatalf("%s w=%d: the cut frame was not counted as a truncated drop", schema, workers)
			}
		}
	}
}

// TestFrameBatchTypedDropCounters checks that decode failures land in the
// per-reason counters, locally and aggregated across arenas attached to
// one registry.
func TestFrameBatchTypedDropCounters(t *testing.T) {
	dp, err := Compile(fig1b(), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	good := tcpTo(1, 0xC0000201, 80).Marshal(nil)
	bad := append([]byte(nil), good...)
	bad[packet.EthHeaderLen+10] ^= 0xFF // damage the IPv4 checksum
	short := good[:5]

	a := NewFrameBatch(nil).Attach(reg)
	out := make([]Verdict, 3)
	if err := dp.ProcessFrames([][]byte{good, bad, short}, a, out, nil); err != nil {
		t.Fatal(err)
	}
	if out[0].Drop || !out[1].Drop || !out[2].Drop {
		t.Fatalf("verdicts {%v %v %v}, want {forward drop drop}", out[0].Drop, out[1].Drop, out[2].Drop)
	}
	if tr, bh, _ := a.Drops(); tr != 1 || bh != 1 {
		t.Fatalf("arena drops truncated=%d bad_header=%d, want 1/1", tr, bh)
	}

	// A second arena on the same registry aggregates into the same
	// counters (the per-worker pattern).
	b := NewFrameBatch(nil).Attach(reg)
	if err := dp.ProcessFrames([][]byte{short}, b, out, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ingest.drops.truncated"]; got != 2 {
		t.Fatalf("registry truncated drops = %d, want 2", got)
	}
	if got := snap.Counters["ingest.drops.bad_header"]; got != 1 {
		t.Fatalf("registry bad_header drops = %d, want 1", got)
	}
}

// TestProcessFramesArenaValidation pins the misuse errors: missing arena,
// short verdict buffer, and schema mismatches in both directions.
func TestProcessFramesArenaValidation(t *testing.T) {
	dp, err := Compile(fig1b(), AutoTemplates)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := packet.BuiltinDecoder(packet.SchemaVXLAN)
	if err != nil {
		t.Fatal(err)
	}
	sdp := schemaKeyPipeline(t, dec, packet.FieldVXLANVNI, 1000, 1)
	frames := [][]byte{tcpTo(1, 2, 3).Marshal(nil)}
	out := make([]Verdict, 1)
	if err := dp.ProcessFrames(frames, nil, out, nil); err == nil {
		t.Fatal("nil arena accepted")
	}
	if err := dp.ProcessFrames(frames, NewFrameBatch(nil), out[:0], nil); err == nil {
		t.Fatal("short verdict buffer accepted")
	}
	if err := dp.ProcessFrames(frames, NewFrameBatch(dec), out, nil); err == nil {
		t.Fatal("schema arena accepted by default pipeline")
	}
	if err := sdp.ProcessFrames(frames, NewFrameBatch(nil), out, nil); err == nil {
		t.Fatal("default arena accepted by schema pipeline")
	}
}
