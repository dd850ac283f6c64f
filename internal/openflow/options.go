package openflow

import (
	"net"
	"time"
)

// ClientOption configures a Client at construction. Functional options
// keep call sites stable as resilience knobs accumulate.
type ClientOption func(*Client)

// WithRPCTimeout bounds each RPC attempt (handshake, echo, barrier,
// stats). 0 disables the per-attempt deadline (RPCs then only respect the
// caller's context).
func WithRPCTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.rpcTimeout = d }
}

// WithRetryPolicy installs the backoff schedule used for RPC retries and
// reconnect attempts.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithDialer enables automatic reconnection: on connection failure the
// client redials, re-handshakes, and resends every unacknowledged
// flow-mod (the xid-keyed resend queue) before retrying the failed
// operation. Without a dialer, connection loss is terminal — the
// pre-resilience behavior.
func WithDialer(dial func() (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dial = dial }
}

// AgentOption configures an Agent at construction.
type AgentOption func(*Agent)

// WithStrictDecode makes any malformed control frame terminate the
// session. By default the agent is lenient: a well-framed message that
// fails to decode is answered with a TypeError and the session continues
// (graceful degradation under a corrupting channel); only framing-level
// desynchronization ends the session.
func WithStrictDecode(strict bool) AgentOption {
	return func(a *Agent) { a.strictDecode = strict }
}
