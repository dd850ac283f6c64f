package confluence

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"manorm/internal/core"
	"manorm/internal/mat"
)

// Fingerprint reduces a pipeline to the identity of the program it
// implements: the hash of its universal table. The installed rule set is
// denormalized to the one table that forwards like it (for a normalized
// program, by Theorem 1, its universal table), and that table's
// canonical form (mat.Table.Canonical: columns by name, entries sorted,
// no table name) is hashed. Two switches hold semantically identical
// programs iff their fingerprints agree — whatever order their flow-mods
// arrived in, the multi-table shape they were installed as, or the names
// and column order the installer chose.
func Fingerprint(p *mat.Pipeline) (string, error) {
	u, err := core.Denormalize(p)
	if err != nil {
		return "", fmt.Errorf("confluence: fingerprint: %w", err)
	}
	raw, err := json.Marshal(u.Canonical())
	if err != nil {
		return "", fmt.Errorf("confluence: fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// CanonicalState serializes a pipeline with every table's entries
// sorted, so pipelines differing only in entry order render identically.
// It is the syntactic state-equality relation the verifier groups
// interleaving outcomes by (finer than fingerprint equality: two
// canonically distinct states may still denormalize to the same
// universal table).
func CanonicalState(p *mat.Pipeline) (string, error) {
	cp := p.Clone()
	for _, st := range cp.Stages {
		st.Table.SortEntries()
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}
