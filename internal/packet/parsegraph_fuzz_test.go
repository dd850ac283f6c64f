package packet

import (
	"bytes"
	"testing"
)

// FuzzDecoderParse throws arbitrary bytes at every shipped decoder. The
// invariants: no panic, presence never claims bytes the frame does not
// have, every slot read through the lazy view equals readBits on its
// header's bytes (checkView's eager oracle), and a successfully parsed
// view re-encodes and re-parses to the same slots (idempotent
// normalization) for generic schemas.
func FuzzDecoderParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 14))
	f.Add(TCP4(1, 2, 3, 4, 5, 6).Marshal(nil))
	vx := mustFuzzDecoder(f, SchemaVXLAN)
	seed := vx.NewView()
	for hi := range vx.Schema().Headers {
		seed.MarkPresent(hi)
	}
	seed.SetName("eth_type", EtherTypeIPv4)
	seed.SetName("ip_proto", ProtoUDP)
	seed.SetName("udp_dst", UDPPortVXLAN)
	f.Add(seed.Marshal(nil))

	decs := make([]*Decoder, 0, 4)
	for _, name := range BuiltinSchemaNames() {
		decs = append(decs, mustFuzzDecoder(f, name))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, dec := range decs {
			v := dec.NewView()
			if err := dec.ParseInto(v, frame); err != nil {
				continue
			}
			if dec.Schema().Name == SchemaDefault {
				continue // legacy codec normalizes (padding, checksums)
			}
			claimed := 0
			for hi := range dec.Schema().Headers {
				if v.HeaderPresent(hi) {
					claimed += dec.Schema().headerBytes(hi)
				}
			}
			if claimed+len(v.Payload()) != len(frame) {
				t.Fatalf("%s: claimed %d + payload %d != frame %d",
					dec.Schema().Name, claimed, len(v.Payload()), len(frame))
			}
			wire := v.Marshal(nil) // before any Get: the bulk load
			checkView(t, v, frame, nil)
			v2, err := dec.Parse(wire)
			if err != nil {
				t.Fatalf("%s: re-parse of re-encoded frame: %v", dec.Schema().Name, err)
			}
			if v2.present != v.present {
				t.Fatalf("%s: presence changed on round trip: %b -> %b", dec.Schema().Name, v.present, v2.present)
			}
			for i := 0; i < dec.Schema().NumSlots(); i++ {
				a, aok := v.Get(i)
				b, bok := v2.Get(i)
				if a != b || aok != bok {
					t.Fatalf("%s: slot %d changed on round trip", dec.Schema().Name, i)
				}
			}
		}
	})
}

func mustFuzzDecoder(f *testing.F, name string) *Decoder {
	f.Helper()
	d, err := BuiltinDecoder(name)
	if err != nil {
		f.Fatal(err)
	}
	return d
}
