package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
)

// corpusFile is the on-disk reproducer format: the property and the kind
// it must show on replay (KindFixed for a bug since fixed), then the
// input, whose fields the property's shape decodes: the table, packets or
// frames as hex wire frames, a parse graph (without Verify hooks, which
// the generators never use), flow-mod batches, a step count.
type corpusFile struct {
	Property string               `json:"property"`
	Kind     string               `json:"kind"`
	Seed     int64                `json:"seed"`
	Note     string               `json:"note,omitempty"`
	Caveat   bool                 `json:"caveat,omitempty"`
	Graph    *packet.ParseGraph   `json:"graph,omitempty"`
	Table    *mat.Table           `json:"table"`
	Frames   []string             `json:"frames,omitempty"`
	Batches  [][]openflow.FlowMod `json:"batches,omitempty"`
	Steps    int                  `json:"steps,omitempty"`
}

// MarshalCorpus serializes an input of prop together with the divergence
// kind it must reproduce.
func MarshalCorpus(p *Program, prop Property, kind string) ([]byte, error) {
	cf := corpusFile{Property: prop.Name, Kind: kind, Seed: p.Seed, Note: p.Note, Caveat: p.Caveat,
		Graph: p.Graph, Table: p.Table, Batches: p.Batches, Steps: p.Steps}
	for _, pk := range p.Packets {
		cf.Frames = append(cf.Frames, hex.EncodeToString(pk.Marshal(nil)))
	}
	for _, f := range p.Frames {
		cf.Frames = append(cf.Frames, hex.EncodeToString(f))
	}
	return json.MarshalIndent(cf, "", "  ")
}

// UnmarshalCorpus parses a corpus file back into its property, a
// replayable input and the kind it must reproduce.
func UnmarshalCorpus(b []byte) (Property, *Program, string, error) {
	var cf corpusFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return Property{}, nil, "", fmt.Errorf("difftest: corpus: %w", err)
	}
	prop, ok := Lookup(cf.Property)
	if !ok {
		return Property{}, nil, "", fmt.Errorf("difftest: corpus: unknown property %q", cf.Property)
	}
	if cf.Kind == "" || cf.Table == nil {
		return Property{}, nil, "", errors.New("difftest: corpus: no kind or no table")
	}
	p := &Program{Seed: cf.Seed, Note: cf.Note, Table: cf.Table}
	if err := prop.Input.decode(&cf, p); err != nil {
		return Property{}, nil, "", fmt.Errorf("difftest: corpus %s input: %w", prop.Input.Name, err)
	}
	return prop, p, cf.Kind, nil
}

// decodePackets reads a Programs input: the frames parse to packets.
func decodePackets(f *corpusFile, p *Program) error {
	p.Caveat = f.Caveat
	for i, h := range f.Frames {
		raw, err := hex.DecodeString(h)
		pk := new(packet.Packet)
		if err == nil {
			err = pk.ParseInto(raw)
		}
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		p.Packets = append(p.Packets, pk)
	}
	return nil
}

// decodeFrames reads a Schemas input, checking the graph and every frame
// up front, so a corrupt reproducer fails here rather than mid-replay.
func decodeFrames(f *corpusFile, p *Program) error {
	if f.Graph == nil {
		return errors.New("no parse graph")
	}
	dec, err := f.Graph.Compile()
	if err != nil {
		return err
	}
	p.Graph, p.Caveat = f.Graph, f.Caveat
	view := dec.NewView()
	for i, h := range f.Frames {
		raw, err := hex.DecodeString(h)
		if err == nil {
			err = dec.ParseInto(view, raw)
		}
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		p.Frames = append(p.Frames, raw)
	}
	return nil
}

// WriteCorpus writes the input into dir under a content-addressed name
// ("<property>-<kind>-<hash>.json"), creating dir if needed, and returns
// the path. Writing the same reproducer twice is idempotent.
func WriteCorpus(dir string, p *Program, prop Property, kind string) (string, error) {
	b, err := MarshalCorpus(p, prop, kind)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", prop.Name, kind, hex.EncodeToString(sum[:4])))
	return path, os.WriteFile(path, b, 0o644)
}

// CorpusFiles lists the corpus files in dir, sorted; a missing directory
// is an empty corpus.
func CorpusFiles(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "*.json"))
}

// Replay runs a corpus file's property on its input and returns the
// divergences and the recorded kind, for Reproduces to compare.
func Replay(path string, cfg Config) ([]Divergence, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	prop, p, kind, err := UnmarshalCorpus(b)
	if err != nil {
		return nil, "", err
	}
	divs, _, err := Run(p, []Property{prop}, cfg)
	return divs, kind, err
}
