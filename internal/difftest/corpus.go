package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
)

// corpusFile is the on-disk reproducer format: the universal table in the
// mat JSON codec, the packets as hex-encoded wire frames (so replay
// parses exactly the bytes the divergence was found on), and the
// divergence kind recorded when the file was written. Schema-mode
// reproducers additionally carry the parse graph (the packet types are
// JSON-serializable; Verify hooks are dropped, which the generators never
// rely on) — when Graph is present the frames replay through its compiled
// decoder instead of the canonical parser.
type corpusFile struct {
	Seed   int64              `json:"seed"`
	Note   string             `json:"note,omitempty"`
	Kind   string             `json:"kind,omitempty"`
	Caveat bool               `json:"caveat,omitempty"`
	Graph  *packet.ParseGraph `json:"graph,omitempty"`
	Table  *mat.Table         `json:"table"`
	Frames []string           `json:"frames"`
	// Batches carries confluence-mode reproducers: the concurrent flow-mod
	// batches replayed against the table as the base state (mat.Cell
	// marshals as a plain struct, so flow-mods round-trip as-is).
	Batches [][]openflow.FlowMod `json:"batches,omitempty"`
}

// MarshalCorpus serializes a program (plus the divergence kind that
// triggered the write) into the corpus JSON format.
func MarshalCorpus(p *Program, kind string) ([]byte, error) {
	cf := corpusFile{Seed: p.Seed, Note: p.Note, Kind: kind, Caveat: p.Caveat, Graph: p.Graph, Table: p.Table, Batches: p.Batches}
	if p.SchemaMode() {
		cf.Frames = make([]string, len(p.Frames))
		for i, f := range p.Frames {
			cf.Frames[i] = hex.EncodeToString(f)
		}
	} else {
		cf.Frames = make([]string, len(p.Packets))
		for i, pk := range p.Packets {
			cf.Frames[i] = hex.EncodeToString(pk.Marshal(nil))
		}
	}
	return json.MarshalIndent(cf, "", "  ")
}

// UnmarshalCorpus parses a corpus file back into a replayable program and
// the recorded divergence kind.
func UnmarshalCorpus(b []byte) (*Program, string, error) {
	var cf corpusFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return nil, "", fmt.Errorf("difftest: corpus: %w", err)
	}
	if cf.Table == nil {
		return nil, "", fmt.Errorf("difftest: corpus: no table")
	}
	p := &Program{Seed: cf.Seed, Note: cf.Note, Caveat: cf.Caveat, Graph: cf.Graph, Table: cf.Table, Batches: cf.Batches}
	if cf.Graph != nil {
		// Validate the deserialized graph (and every frame against it) up
		// front, so a corrupt reproducer fails here rather than mid-replay.
		dec, err := cf.Graph.Compile()
		if err != nil {
			return nil, "", fmt.Errorf("difftest: corpus graph: %w", err)
		}
		view := dec.NewView()
		for i, h := range cf.Frames {
			raw, err := hex.DecodeString(h)
			if err != nil {
				return nil, "", fmt.Errorf("difftest: corpus frame %d: %w", i, err)
			}
			if err := dec.ParseInto(view, raw); err != nil {
				return nil, "", fmt.Errorf("difftest: corpus frame %d: %w", i, err)
			}
			p.Frames = append(p.Frames, raw)
		}
		return p, cf.Kind, nil
	}
	for i, h := range cf.Frames {
		raw, err := hex.DecodeString(h)
		if err != nil {
			return nil, "", fmt.Errorf("difftest: corpus frame %d: %w", i, err)
		}
		pk, err := packet.Parse(raw)
		if err != nil {
			return nil, "", fmt.Errorf("difftest: corpus frame %d: %w", i, err)
		}
		p.Packets = append(p.Packets, pk)
	}
	return p, cf.Kind, nil
}

// WriteCorpus writes the program into dir under a content-addressed name
// ("<kind>-<hash>.json"), creating dir if needed, and returns the path.
// Writing the same reproducer twice is idempotent.
func WriteCorpus(dir string, p *Program, kind string) (string, error) {
	b, err := MarshalCorpus(p, kind)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", kind, hex.EncodeToString(sum[:4])))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadCorpus loads one corpus file.
func ReadCorpus(path string) (*Program, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return UnmarshalCorpus(b)
}

// CorpusFiles lists the corpus files in dir in sorted order; a missing
// directory is an empty corpus.
func CorpusFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Replay executes one corpus file and reports its divergences plus the
// kind recorded when it was written. Regression tests assert that every
// committed reproducer still behaves as recorded (Reproduces).
func Replay(path string, cfg ExecConfig) ([]Divergence, string, error) {
	p, kind, err := ReadCorpus(path)
	if err != nil {
		return nil, "", err
	}
	divs, err := Execute(p, cfg)
	return divs, kind, err
}

// Reproduces reports whether a replay's divergences are the ones its
// reproducer recorded: at least one of the recorded kind, or none at all
// for a KindFixed reproducer.
func Reproduces(divs []Divergence, kind string) bool {
	if kind == KindFixed {
		return len(divs) == 0
	}
	for _, d := range divs {
		if d.Kind == kind {
			return true
		}
	}
	return false
}
