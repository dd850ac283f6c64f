package packet

import (
	"fmt"
	"strings"

	"manorm/internal/mat"
)

// Binder is the single bridge between mat.Schema attribute names and a
// header schema's slot space. It replaces the ad-hoc string plumbing that
// used to be scattered across the dataplane compiler, the difftest
// mutation checker and the usecases: match attributes resolve through
// Slot, rewriting action attributes resolve through ActionSlot (which
// understands both the legacy mod_smac/mod_dmac/mod_vlan aliases and the
// generic "mod_<field>" convention), and F/Columns mint mat attributes
// whose widths come from the schema instead of being re-declared at every
// call site.
type Binder struct {
	schema *HeaderSchema
}

// NewBinder wraps a header schema. The schema must be initialized (built
// by NewHeaderSchema or a compiled parse graph).
func NewBinder(s *HeaderSchema) *Binder { return &Binder{schema: s} }

// DefaultBinder binds the built-in default schema.
func DefaultBinder() *Binder { return NewBinder(DefaultDecoder().Schema()) }

// Schema returns the bound header schema.
func (b *Binder) Schema() *HeaderSchema { return b.schema }

// Slot resolves a match attribute name to its field slot, or -1.
func (b *Binder) Slot(attr string) int { return b.schema.Slot(attr) }

// RewriteTarget maps a rewriting action attribute to the field it
// writes: the legacy aliases (mod_smac, mod_dmac, mod_vlan) to their
// fields, mod_<field> to <field>, any other name to itself. It is the one
// rewrite rule of every reader of a pipeline: the binder checks the
// result against its schema, and fusion against its match columns.
func RewriteTarget(attr string) string {
	switch attr {
	case "mod_smac":
		return FieldEthSrc
	case "mod_dmac":
		return FieldEthDst
	case "mod_vlan":
		return FieldVLAN
	}
	return strings.TrimPrefix(attr, "mod_")
}

// ActionTarget maps a rewriting action attribute to the schema field it
// writes (RewriteTarget), or to the attribute name itself when that
// field is not in the schema.
func (b *Binder) ActionTarget(attr string) string {
	if f := RewriteTarget(attr); b.schema.Slot(f) >= 0 {
		return f
	}
	return attr
}

// ActionSlot resolves a rewriting action attribute to the slot it writes,
// or -1 when the target field is not in the schema.
func (b *Binder) ActionSlot(attr string) int {
	return b.schema.Slot(b.ActionTarget(attr))
}

// Width returns the bit width of a match attribute under the schema.
func (b *Binder) Width(attr string) uint8 { return b.schema.Width(attr) }

// F mints a match attribute for a schema field; it panics on names
// outside the schema, so table definitions fail loudly at construction.
func (b *Binder) F(name string) mat.Attr {
	w := b.schema.Width(name)
	if w == 0 {
		panic(fmt.Sprintf("packet: binder for schema %s: unknown field %q", b.schema.Name, name))
	}
	return mat.F(name, w)
}

// Mod mints a rewriting action attribute "mod_<field>" whose width is the
// target field's width.
func (b *Binder) Mod(field string) mat.Attr {
	w := b.schema.Width(field)
	if w == 0 {
		panic(fmt.Sprintf("packet: binder for schema %s: unknown field %q", b.schema.Name, field))
	}
	return mat.A("mod_"+field, w)
}

// Columns builds a mat.Schema of match attributes for the named fields.
func (b *Binder) Columns(names ...string) mat.Schema {
	out := make(mat.Schema, 0, len(names))
	for _, n := range names {
		out = append(out, b.F(n))
	}
	return out
}
