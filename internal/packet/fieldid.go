package packet

// Slot indices of the default schema's fields: the default decoder fills
// them directly, and the Packet adapters (LoadPacket, StorePacket) map
// them to the struct fields. Every other datapath resolves names to slots
// through the schema (HeaderSchema.Slot) at compile time.
const (
	IDEthDst = iota
	IDEthSrc
	IDEthType
	IDVLAN
	IDIPSrc
	IDIPDst
	IDIPProto
	IDTTL
	IDTCPSrc
	IDTCPDst
	// NumFieldIDs is the default schema's slot count.
	NumFieldIDs
)

// ActionField maps rewriting action attribute names to the packet field
// they write (mod_smac -> eth_src etc.); unknown names pass through and are
// treated as opaque packet fields.
func ActionField(name string) string {
	switch name {
	case "mod_smac":
		return FieldEthSrc
	case "mod_dmac":
		return FieldEthDst
	case "mod_vlan":
		return FieldVLAN
	default:
		return name
	}
}
