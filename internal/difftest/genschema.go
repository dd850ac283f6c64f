package difftest

import (
	"fmt"
	"math/rand"

	"manorm/internal/packet"
)

// This file is the Schemas generator: it invents a header schema and a
// chain-shaped parse graph, writes the universal table against the
// invented fields and renders the batch as wire frames. Theorem 1 does not
// care what the fields are called or how wide they are, so every
// representation must still agree, now with the parser in the loop.

// schemaShape is one invented schema plus what the generator needs: the
// select value pinned per steering field, so every frame parses the whole
// chain, and the free fields, available as match columns or rewrite
// targets.
type schemaShape struct {
	graph *packet.ParseGraph
	dec   *packet.Decoder
	pins  map[string]uint64
	free  []attrSpec
}

// genSchemaShape invents a 2–4 header chain. Each header gets 1–3 random
// fields (4..32 bits) plus padding to a byte boundary; the first field of
// every non-terminal header is the select steering the single forward
// transition. All invented schemas parse every well-formed frame to the
// full chain, so presence is total and the relational record covers every
// field — mirroring the full-stack discipline of the canonical generator.
// Shape generation is total over the parameter space: an error is a
// programming bug, and the fuzz target should see it loudly.
func genSchemaShape(seed int64, rng *rand.Rand) *schemaShape {
	nh := 2 + rng.Intn(3)
	headers := make([]packet.Header, 0, nh)
	shape := &schemaShape{pins: make(map[string]uint64)}
	for h := 0; h < nh; h++ {
		nf := 1 + rng.Intn(3)
		bits := 0
		var fs []packet.FieldSpec
		for f := 0; f < nf; f++ {
			w := uint8(4 + rng.Intn(29)) // 4..32 bits
			fs = append(fs, packet.FieldSpec{Name: fmt.Sprintf("h%df%d", h, f), Width: w})
			bits += int(w)
		}
		for _, f := range fs[min(1, nh-1-h):] { // all but a non-terminal header's select
			shape.free = append(shape.free, attrSpec{name: f.Name, width: f.Width, target: f.Name})
		}
		if pad := (8 - bits%8) % 8; pad > 0 {
			fs = append(fs, packet.FieldSpec{Name: fmt.Sprintf("h%dpad", h), Width: uint8(pad)})
		}
		headers = append(headers, packet.Header{Name: fmt.Sprintf("h%d", h), Fields: fs})
	}
	schema, err := packet.NewHeaderSchema(fmt.Sprintf("fuzzschema%d", seed), headers...)
	if err != nil {
		panic(fmt.Sprintf("difftest: schema shape for seed %d: %v", seed, err))
	}
	states := map[string]packet.State{headers[nh-1].Name: {}}
	for h := 0; h < nh-1; h++ {
		sel := headers[h].Fields[0]
		shape.pins[sel.Name] = rng.Uint64() & mask(sel.Width)
		states[headers[h].Name] = packet.State{Select: sel.Name, Transitions: []packet.Transition{{Value: shape.pins[sel.Name], Next: headers[h+1].Name}}}
	}
	shape.graph = &packet.ParseGraph{Schema: schema, Start: headers[0].Name, States: states}
	if shape.dec, err = shape.graph.Compile(); err != nil {
		panic(fmt.Sprintf("difftest: schema shape for seed %d: %v", seed, err))
	}
	return shape
}

// GenerateSchema produces one seeded, deterministic Schemas input: an
// invented header schema and parse graph, a 1NF universal table over its
// free fields (with the same group structure as Generate, so the
// normalizer has dependencies to find), and a frame batch rendered
// through the decoder with the chain's select values pinned. The table's
// provenance is the schema name, so every compiled layer type-checks the
// program against the right decoder.
func GenerateSchema(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))
	shape := genSchemaShape(seed, rng)
	nf := max(1, min(minFields+rng.Intn(maxFields-minFields+1), len(shape.free)))
	perm := rng.Perm(len(shape.free))
	fields := make([]attrSpec, nf)
	for i := range fields {
		fields[i] = shape.free[perm[i]]
	}
	acts := []attrSpec{{name: "out", width: 16}}
	for _, i := range perm[nf:] {
		if len(acts)-1 >= maxExtraActions {
			break
		}
		if f := shape.free[i]; rng.Float64() < 0.5 {
			acts = append(acts, attrSpec{name: "mod_" + f.name, width: f.width, target: f.name})
		}
	}
	t := genTable(rng, fmt.Sprintf("fuzzschema%d", seed), fields, acts)
	t.Provenance = shape.graph.Schema.Name

	// Frames: full chains with the select values pinned and matched fields
	// biased into the table's patterns, marshaled so the replayed bytes
	// are exactly what the executors parse.
	np := minPackets + rng.Intn(maxPackets-minPackets+1)
	frames := make([][]byte, 0, np)
	view := shape.dec.NewView()
	for i := 0; i < np; i++ {
		view.Reset()
		for h := range shape.graph.Schema.Headers {
			view.MarkPresent(h)
		}
		for s := 0; s < shape.dec.Schema().NumSlots(); s++ {
			view.Set(s, rng.Uint64())
		}
		for name, v := range shape.pins {
			view.SetName(name, v)
		}
		for _, fi := range t.Schema.Fields() {
			view.SetName(t.Schema[fi].Name, biased(rng, t, fi))
		}
		if rng.Float64() < 0.3 {
			view.SetPayload([]byte{byte(i), 0xde, 0xad})
		} else {
			view.SetPayload(nil)
		}
		frames = append(frames, view.Marshal(nil))
	}
	return &Program{Seed: seed, Note: fmt.Sprintf("genschema(seed=%d)", seed), Table: t, Graph: shape.graph, Frames: frames}
}
