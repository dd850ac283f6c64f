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
