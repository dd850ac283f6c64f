package packet

import "errors"

// DecodeReason classifies decoder outcomes so ingest paths can keep
// typed per-reason drop counters instead of swallowing opaque errors.
type DecodeReason uint8

const (
	// ReasonNone marks an error that is not a decode classification (or no
	// error at all).
	ReasonNone DecodeReason = iota
	// ReasonTruncated is a frame too short for a mandatory header: the
	// start header, or a tagged/stacked header the graph already committed
	// to (the legacy codec's VLAN tag).
	ReasonTruncated
	// ReasonBadHeader is a header that failed verification: a bad IPv4
	// version/IHL, a failing checksum, or a schema Verify hook returning
	// false.
	ReasonBadHeader
)

// String names the reason the way the ingest counters spell it.
func (r DecodeReason) String() string {
	switch r {
	case ReasonTruncated:
		return "truncated"
	case ReasonBadHeader:
		return "bad_header"
	default:
		return "none"
	}
}

// DecodeError is the typed decode failure both codecs return: the
// classification plus the underlying error (which still unwraps, so
// errors.Is(err, ErrFrameTooShort) keeps working for truncations).
//
// The decoders build their DecodeErrors once — per decoder at Compile,
// package-level for the hand-written codec — and return the same value
// for every frame that fails the same way, so a malformed frame costs
// the ingest path no allocation. The values are shared: treat them as
// read-only, and do not expect the message to carry per-frame detail.
type DecodeError struct {
	Reason DecodeReason
	Err    error
}

func (e *DecodeError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error for errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeReasonOf classifies err: the Reason of the DecodeError in its
// chain, or ReasonNone for non-decode errors (and nil).
func DecodeReasonOf(err error) DecodeReason {
	// The decoders return *DecodeError unwrapped; asserting first keeps
	// errors.As (whose target escapes to the heap) off the per-frame path.
	if de, ok := err.(*DecodeError); ok {
		return de.Reason
	}
	var de *DecodeError
	if errors.As(err, &de) {
		return de.Reason
	}
	return ReasonNone
}
