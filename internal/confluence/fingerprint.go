package confluence

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"manorm/internal/core"
	"manorm/internal/fdd"
	"manorm/internal/mat"
)

// Fingerprint reduces a pipeline to the canonical identity of the program
// it implements: the installed rule set is denormalized to the one table
// that forwards like it (for a normalized program, by Theorem 1, its
// universal table), the table's entries are sorted
// into a canonical order (matching is order-free; resends and shuffled
// deliveries may install entries in any order), the sorted table is
// renormalized, and the resulting pipeline is hashed in canonical JSON.
// When the renormalized pipeline fuses, the fused first-match rule list
// (the canonical FDD in internal/fdd's sense) is layered into the hash
// too, so the fingerprint pins the decision structure as well as the
// relational content; unfusable pipelines fall back to the relational
// layer alone. Two switches hold semantically identical programs iff
// their fingerprints agree — regardless of the order their flow-mods
// arrived in or the multi-table shape they were installed as.
func Fingerprint(p *mat.Pipeline) (string, error) {
	u, err := core.Denormalize(p)
	if err != nil {
		return "", fmt.Errorf("confluence: fingerprint: %w", err)
	}
	u.SortEntries()
	res, err := core.Normalize(u, core.Options{})
	if err != nil {
		return "", fmt.Errorf("confluence: fingerprint: %w", err)
	}
	s, err := CanonicalState(res.Pipeline)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(s))
	if prog, err := fdd.Fuse(res.Pipeline); err == nil {
		raw, err := json.Marshal(prog.MatchTable())
		if err != nil {
			return "", fmt.Errorf("confluence: fingerprint: %w", err)
		}
		h.Write(raw)
	} else if !fdd.IsUnfusable(err) {
		return "", fmt.Errorf("confluence: fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// CanonicalState serializes a pipeline with every table's entries
// sorted, so pipelines differing only in entry order render identically.
// It is the syntactic state-equality relation the verifier groups
// interleaving outcomes by (finer than fingerprint equality: two
// canonically distinct states may still normalize to the same program).
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
