// Package openflow implements a compact OpenFlow-inspired control
// protocol: binary-framed Hello/Echo/FlowMod/Barrier/Stats messages over
// any net.Conn, a switch-side agent that applies flow-mods to an installed
// match-action pipeline, and a controller-side client.
//
// The protocol is deliberately a *subset-with-liberties* of OpenFlow 1.3:
// matches are (field-name, pattern) pairs rather than OXM TLV codepoints,
// which keeps the wire format aligned with the attribute-name view used by
// the rest of the system while preserving the operational semantics the
// paper's reactiveness experiment depends on — per-table flow
// modifications, barriers, and counter reads.
package openflow

import (
	"encoding/binary"
	"fmt"

	"manorm/internal/mat"
)

// Version is the protocol version byte.
const Version = 1

// MsgType enumerates message types.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFlowMod
	TypeBarrierRequest
	TypeBarrierReply
	TypeStatsRequest
	TypeStatsReply
	TypeError
	// TypeFlowDumpRequest asks the switch for its full logical pipeline;
	// TypeFlowDumpReply answers with the pipeline in the JSON form of
	// internal/mat. The dump powers controller-side resynchronization
	// (full state transfer after a reconnect) and the fabric convergence
	// checker, which fingerprints each switch's installed rule set.
	TypeFlowDumpRequest
	TypeFlowDumpReply
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFlowMod:
		return "flow-mod"
	case TypeBarrierRequest:
		return "barrier-request"
	case TypeBarrierReply:
		return "barrier-reply"
	case TypeStatsRequest:
		return "stats-request"
	case TypeStatsReply:
		return "stats-reply"
	case TypeError:
		return "error"
	case TypeFlowDumpRequest:
		return "flow-dump-request"
	case TypeFlowDumpReply:
		return "flow-dump-reply"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// FlowModCommand selects the flow-mod operation.
type FlowModCommand uint8

// Flow-mod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
)

// MatchField is one (name, pattern) match in a flow-mod.
type MatchField struct {
	Name  string
	Width uint8
	Cell  mat.Cell
}

// ActionField is one (name, value) action in a flow-mod. Goto targets use
// the reserved mat.GotoAttr name.
type ActionField struct {
	Name  string
	Width uint8
	Value uint64
}

// FlowMod is a flow-table modification request.
type FlowMod struct {
	Command FlowModCommand
	// TableID addresses the pipeline stage.
	TableID uint8
	Match   []MatchField
	Actions []ActionField
}

// Message is one framed control message.
type Message struct {
	Type MsgType
	XID  uint32
	// Flow carries the flow-mod body for TypeFlowMod.
	Flow *FlowMod
	// Stats carries counters for TypeStatsReply, and the table selector
	// for TypeStatsRequest (TableID in Flow is not used for stats).
	Stats *Stats
	// Err carries the error text for TypeError.
	Err string
	// Payload carries opaque bytes for echo messages, and the
	// acknowledged flow-mod xids (big-endian uint32s) for
	// TypeBarrierReply — the switch's receipt list that lets a client on
	// a lossy channel detect silently dropped flow-mods and resend them.
	Payload []byte
}

// Stats is a counter snapshot: per-entry packet counts of one table, or
// the table selector in a request.
type Stats struct {
	TableID uint8
	Counts  []uint64
}

// maxMessage bounds decoded message sizes (defense against corrupt peers).
const maxMessage = 1 << 20

// Encode serializes a message with its 8-byte header
// (version, type, length, xid).
func Encode(m *Message) ([]byte, error) {
	body, err := encodeBody(m)
	if err != nil {
		return nil, err
	}
	if len(body)+8 > maxMessage {
		return nil, badFrame("message too large: %d", len(body)+8)
	}
	out := make([]byte, 8+len(body))
	out[0] = Version
	out[1] = byte(m.Type)
	binary.BigEndian.PutUint16(out[2:], uint16(len(out)))
	binary.BigEndian.PutUint32(out[4:], m.XID)
	copy(out[8:], body)
	return out, nil
}

func encodeBody(m *Message) ([]byte, error) {
	var b []byte
	switch m.Type {
	case TypeHello, TypeBarrierRequest, TypeFlowDumpRequest:
		return nil, nil
	case TypeBarrierReply:
		// The payload is the ack-xid list (4-byte aligned by
		// construction; see appendAckXIDs).
		return m.Payload, nil
	case TypeEchoRequest, TypeEchoReply:
		return m.Payload, nil
	case TypeFlowDumpReply:
		// The payload is the JSON-encoded logical pipeline.
		return m.Payload, nil
	case TypeError:
		return append(b, m.Err...), nil
	case TypeStatsRequest:
		if m.Stats == nil {
			return nil, badFrame("stats-request without selector")
		}
		return []byte{m.Stats.TableID}, nil
	case TypeStatsReply:
		if m.Stats == nil {
			return nil, badFrame("stats-reply without stats")
		}
		b = append(b, m.Stats.TableID)
		b = appendUint32(b, uint32(len(m.Stats.Counts)))
		for _, c := range m.Stats.Counts {
			b = appendUint64(b, c)
		}
		return b, nil
	case TypeFlowMod:
		f := m.Flow
		if f == nil {
			return nil, badFrame("flow-mod without body")
		}
		b = append(b, byte(f.Command), f.TableID)
		b = appendUint16(b, uint16(len(f.Match)))
		for _, mf := range f.Match {
			b = appendString(b, mf.Name)
			b = append(b, mf.Width, mf.Cell.PLen)
			b = appendUint64(b, mf.Cell.Bits)
		}
		b = appendUint16(b, uint16(len(f.Actions)))
		for _, af := range f.Actions {
			b = appendString(b, af.Name)
			b = append(b, af.Width)
			b = appendUint64(b, af.Value)
		}
		return b, nil
	default:
		return nil, unsupported("cannot encode type %s", m.Type)
	}
}

// Decode parses one full frame previously produced by Encode.
func Decode(frame []byte) (*Message, error) {
	if len(frame) < 8 {
		return nil, badFrame("short frame: %d bytes", len(frame))
	}
	if frame[0] != Version {
		return nil, badFrame("bad version %d", frame[0])
	}
	if int(binary.BigEndian.Uint16(frame[2:])) != len(frame) {
		return nil, badFrame("length field %d != frame %d", binary.BigEndian.Uint16(frame[2:]), len(frame))
	}
	m := &Message{Type: MsgType(frame[1]), XID: binary.BigEndian.Uint32(frame[4:])}
	body := frame[8:]
	switch m.Type {
	case TypeHello, TypeBarrierRequest, TypeFlowDumpRequest:
		return m, nil
	case TypeBarrierReply:
		if len(body)%4 != 0 {
			return nil, badFrame("barrier-reply ack list not 4-byte aligned")
		}
		m.Payload = append([]byte(nil), body...)
		return m, nil
	case TypeEchoRequest, TypeEchoReply, TypeFlowDumpReply:
		m.Payload = append([]byte(nil), body...)
		return m, nil
	case TypeError:
		m.Err = string(body)
		return m, nil
	case TypeStatsRequest:
		if len(body) != 1 {
			return nil, badFrame("bad stats-request body")
		}
		m.Stats = &Stats{TableID: body[0]}
		return m, nil
	case TypeStatsReply:
		if len(body) < 5 {
			return nil, badFrame("bad stats-reply body")
		}
		s := &Stats{TableID: body[0]}
		n := binary.BigEndian.Uint32(body[1:])
		body = body[5:]
		if uint64(len(body)) != uint64(n)*8 {
			return nil, badFrame("stats-reply length mismatch")
		}
		for i := uint32(0); i < n; i++ {
			s.Counts = append(s.Counts, binary.BigEndian.Uint64(body[i*8:]))
		}
		m.Stats = s
		return m, nil
	case TypeFlowMod:
		f := &FlowMod{}
		if len(body) < 4 {
			return nil, badFrame("bad flow-mod body")
		}
		f.Command = FlowModCommand(body[0])
		f.TableID = body[1]
		nMatch := binary.BigEndian.Uint16(body[2:])
		body = body[4:]
		var err error
		for i := 0; i < int(nMatch); i++ {
			var mf MatchField
			mf.Name, body, err = takeString(body)
			if err != nil {
				return nil, err
			}
			if len(body) < 10 {
				return nil, badFrame("truncated match field")
			}
			mf.Width = body[0]
			mf.Cell = mat.Cell{PLen: body[1], Bits: binary.BigEndian.Uint64(body[2:])}
			body = body[10:]
			f.Match = append(f.Match, mf)
		}
		if len(body) < 2 {
			return nil, badFrame("truncated action count")
		}
		nAct := binary.BigEndian.Uint16(body)
		body = body[2:]
		for i := 0; i < int(nAct); i++ {
			var af ActionField
			af.Name, body, err = takeString(body)
			if err != nil {
				return nil, err
			}
			if len(body) < 9 {
				return nil, badFrame("truncated action field")
			}
			af.Width = body[0]
			af.Value = binary.BigEndian.Uint64(body[1:])
			body = body[9:]
			f.Actions = append(f.Actions, af)
		}
		if len(body) != 0 {
			return nil, badFrame("%d trailing bytes in flow-mod", len(body))
		}
		m.Flow = f
		return m, nil
	default:
		return nil, unsupported("unknown type %d", frame[1])
	}
}

// appendAckXIDs encodes the barrier-reply receipt list.
func appendAckXIDs(b []byte, xids []uint32) []byte {
	for _, x := range xids {
		b = appendUint32(b, x)
	}
	return b
}

// parseAckXIDs decodes a barrier-reply payload (validated 4-byte aligned
// by Decode).
func parseAckXIDs(payload []byte) []uint32 {
	if len(payload) < 4 {
		return nil
	}
	out := make([]uint32, 0, len(payload)/4)
	for i := 0; i+4 <= len(payload); i += 4 {
		out = append(out, binary.BigEndian.Uint32(payload[i:]))
	}
	return out
}

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendString(b []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	b = append(b, byte(len(s)))
	return append(b, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, badFrame("truncated string")
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", nil, badFrame("truncated string body")
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}
