package openflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"manorm/internal/stats"
	"manorm/internal/telemetry"
)

// Client is the controller-side endpoint: it sends flow-mods, waits on
// barriers, and reads stats over a control connection. Safe for
// concurrent use.
//
// Resilience model: every RPC attempt runs under a per-attempt deadline
// (WithRPCTimeout) and transient failures — timeouts and connection loss
// — are retried under an exponential-backoff schedule (WithRetryPolicy).
// When a dialer is configured (WithDialer), connection loss triggers an
// automatic reconnect; flow-mods live in an xid-keyed resend queue until
// a barrier reply acknowledges them, so they are retried idempotently
// across drops and reconnects (the agent deduplicates by xid). Without a
// dialer, connection loss is terminal.
type Client struct {
	dial       func() (net.Conn, error)
	rpcTimeout time.Duration
	retry      RetryPolicy

	opMu sync.Mutex // serializes RPC retry loops and reconnects
	rng  *rand.Rand // backoff jitter stream; guarded by opMu

	mu       sync.Mutex
	conn     *Conn
	gen      int  // bumped per attach; stale read loops detect replacement
	attached bool // a transport has been attached at least once
	broken   bool
	closed   bool
	pending  map[uint32]chan *Message
	queue    []queuedMod
	asyncErr error
	lat      *stats.Reservoir
	rpcs     int64

	xid atomic.Uint32

	// ModsSent counts flow-mods issued — the controller-side churn
	// metric.
	ModsSent int64

	modsResent int64
	retries    int64
	reconnects int64
	timeouts   int64
	switchErrs int64
}

// latCap is the size of the client's RPC latency reservoir.
const latCap = 1024

// queuedMod is one unacknowledged flow-mod in the resend queue.
type queuedMod struct {
	xid uint32
	mod *FlowMod
}

// NewClient starts a client on the connection and performs the hello
// handshake. conn may be nil when a dialer is configured — the client
// then dials (with backoff) itself.
func NewClient(conn net.Conn, opts ...ClientOption) (*Client, error) {
	c := &Client{
		rpcTimeout: 5 * time.Second,
		retry:      DefaultRetryPolicy(),
		pending:    make(map[uint32]chan *Message),
	}
	for _, o := range opts {
		o(c)
	}
	c.rng = rand.New(rand.NewSource(c.retry.Seed))
	c.lat = stats.NewReservoir(latCap, c.retry.Seed+1)

	if conn != nil {
		err := c.attach(conn)
		if err == nil {
			return c, nil
		}
		if c.dial == nil {
			return nil, err
		}
	} else if c.dial == nil {
		return nil, opErr("handshake", 0, -1, fmt.Errorf("%w: no connection and no dialer", ErrClosed))
	}
	c.opMu.Lock()
	defer c.opMu.Unlock()
	if err := c.reconnect(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// attach performs the hello handshake on a fresh transport and starts its
// read loop. The switch speaks first, so the handshake also works over
// fully synchronous transports (net.Pipe).
func (c *Client) attach(raw net.Conn) error {
	nc := NewConn(raw)
	if c.rpcTimeout > 0 {
		_ = raw.SetDeadline(time.Now().Add(c.rpcTimeout))
	}
	m, err := nc.Recv()
	if err != nil {
		raw.Close()
		return opErr("handshake", 0, -1, err)
	}
	if m.Type != TypeHello {
		raw.Close()
		return opErr("handshake", m.XID, -1, fmt.Errorf("%w: expected hello, got %s", ErrBadFrame, m.Type))
	}
	if err := nc.Send(&Message{Type: TypeHello}); err != nil {
		raw.Close()
		return opErr("handshake", 0, -1, err)
	}
	if c.rpcTimeout > 0 {
		_ = raw.SetDeadline(time.Time{})
	}
	c.mu.Lock()
	c.conn = nc
	c.attached = true
	c.broken = false
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	go c.readLoop(nc, gen)
	return nil
}

func (c *Client) readLoop(nc *Conn, gen int) {
	for {
		m, err := nc.Recv()
		if err != nil {
			// A decode failure of a well-framed message leaves the
			// stream usable; skip the frame and keep reading.
			if (errors.Is(err, ErrBadFrame) || errors.Is(err, ErrUnsupported)) && !nc.Broken() {
				continue
			}
			c.mu.Lock()
			if gen == c.gen {
				c.broken = true
				for xid, ch := range c.pending {
					close(ch)
					delete(c.pending, xid)
				}
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		if m.Type == TypeError {
			// An error addressed to a queued flow-mod is a permanent
			// switch-side rejection: drop it from the resend queue and
			// surface it at the next barrier.
			if i := queueIndex(c.queue, m.XID); i >= 0 {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				if c.asyncErr == nil {
					c.asyncErr = &SwitchError{XID: m.XID, Msg: m.Err}
				}
				atomic.AddInt64(&c.switchErrs, 1)
				c.mu.Unlock()
				continue
			}
		}
		if ch, ok := c.pending[m.XID]; ok {
			ch <- m
			delete(c.pending, m.XID)
		}
		c.mu.Unlock()
	}
}

func queueIndex(queue []queuedMod, xid uint32) int {
	for i, q := range queue {
		if q.xid == xid {
			return i
		}
	}
	return -1
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Client) markBroken(nc *Conn) {
	c.mu.Lock()
	if c.conn == nc {
		c.broken = true
	}
	c.mu.Unlock()
}

func (c *Client) dropPending(xid uint32) {
	c.mu.Lock()
	delete(c.pending, xid)
	c.mu.Unlock()
}

func (c *Client) observeLatency(d time.Duration) {
	c.mu.Lock()
	c.lat.Add(float64(d.Nanoseconds()))
	c.rpcs++
	c.mu.Unlock()
}

// rpc sends a request and waits for the reply carrying the same xid,
// retrying transient failures. Permanent failures (switch-reported
// errors, context cancellation) return immediately.
func (c *Client) rpc(ctx context.Context, op string, m *Message) (*Message, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	return c.rpcLocked(ctx, op, m)
}

func (c *Client) rpcLocked(ctx context.Context, op string, m *Message) (*Message, error) {
	var lastErr error
	for attempt := 0; attempt <= c.retry.MaxRetries; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&c.retries, 1)
			if err := sleep(ctx, c.retry.Delay(attempt-1, c.rng)); err != nil {
				return nil, opErr(op, 0, -1, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, opErr(op, 0, -1, err)
		}
		reply, err := c.attemptRPC(ctx, op, m)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		var se *SwitchError
		if errors.As(err, &se) || ctx.Err() != nil {
			return nil, err
		}
		if errors.Is(err, ErrClosed) {
			if c.dial == nil || c.isClosed() {
				return nil, err
			}
			if rerr := c.reconnect(ctx); rerr != nil {
				return nil, rerr
			}
		}
		// ErrTimeout: retry on the live connection with a fresh xid (a
		// stale reply to the timed-out xid is discarded by readLoop).
	}
	return nil, lastErr
}

// attemptRPC performs one send-and-wait under the per-attempt deadline.
func (c *Client) attemptRPC(ctx context.Context, op string, m *Message) (*Message, error) {
	c.mu.Lock()
	if c.closed || c.conn == nil || c.broken {
		c.mu.Unlock()
		return nil, opErr(op, 0, -1, ErrClosed)
	}
	nc := c.conn
	xid := c.xid.Add(1)
	req := *m
	req.XID = xid
	ch := make(chan *Message, 1)
	c.pending[xid] = ch
	c.mu.Unlock()

	start := time.Now()
	if err := nc.Send(&req); err != nil {
		c.dropPending(xid)
		c.markBroken(nc)
		return nil, opErr(op, xid, -1, err)
	}
	var timeout <-chan time.Time
	if c.rpcTimeout > 0 {
		t := time.NewTimer(c.rpcTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, opErr(op, xid, -1, ErrClosed)
		}
		c.observeLatency(time.Since(start))
		if reply.Type == TypeError {
			return nil, opErr(op, xid, -1, &SwitchError{XID: xid, Msg: reply.Err})
		}
		return reply, nil
	case <-timeout:
		c.dropPending(xid)
		atomic.AddInt64(&c.timeouts, 1)
		return nil, opErr(op, xid, -1, ErrTimeout)
	case <-ctx.Done():
		c.dropPending(xid)
		return nil, opErr(op, xid, -1, ctx.Err())
	}
}

// reconnect closes the current transport, redials with backoff, and
// resends every queued (unacknowledged) flow-mod under its original xid.
// Callers hold opMu.
func (c *Client) reconnect(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return opErr("reconnect", 0, -1, ErrClosed)
	}
	old := c.conn
	redial := c.attached // the first attach is a connect, not a reconnect
	c.conn = nil
	c.broken = true
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	var lastErr error = ErrClosed
	for attempt := 0; attempt <= c.retry.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.retry.Delay(attempt-1, c.rng)); err != nil {
				return opErr("reconnect", 0, -1, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return opErr("reconnect", 0, -1, err)
		}
		raw, err := c.dial()
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.attach(raw); err != nil {
			lastErr = err
			continue
		}
		if redial {
			atomic.AddInt64(&c.reconnects, 1)
		}
		c.mu.Lock()
		queue := append([]queuedMod(nil), c.queue...)
		c.mu.Unlock()
		if err := c.resendMods(queue); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return opErr("reconnect", 0, -1, fmt.Errorf("%w: giving up after %d attempts: %w", ErrClosed, c.retry.MaxRetries+1, lastErr))
}

// resendMods replays queued flow-mods under their original xids (the
// agent deduplicates re-deliveries by xid).
func (c *Client) resendMods(mods []queuedMod) error {
	c.mu.Lock()
	nc := c.conn
	c.mu.Unlock()
	if nc == nil {
		return opErr("resend", 0, -1, ErrClosed)
	}
	for _, q := range mods {
		if err := nc.Send(&Message{Type: TypeFlowMod, XID: q.xid, Flow: q.mod}); err != nil {
			c.markBroken(nc)
			return opErr("resend", q.xid, int(q.mod.TableID), err)
		}
		atomic.AddInt64(&c.modsResent, 1)
	}
	return nil
}

// SendFlowMod issues a flow modification (asynchronous; commit with
// Barrier). The mod enters the xid-keyed resend queue and stays there
// until a barrier reply acknowledges it, so it survives channel drops and
// reconnects. Switch-side rejections surface at the next Barrier.
func (c *Client) SendFlowMod(ctx context.Context, f *FlowMod) error {
	if f == nil {
		return opErr("flow-mod", 0, -1, badFrame("nil flow-mod"))
	}
	if err := ctx.Err(); err != nil {
		return opErr("flow-mod", 0, int(f.TableID), err)
	}
	atomic.AddInt64(&c.ModsSent, 1)
	xid := c.xid.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return opErr("flow-mod", xid, int(f.TableID), ErrClosed)
	}
	c.queue = append(c.queue, queuedMod{xid: xid, mod: f})
	nc, broken := c.conn, c.broken
	c.mu.Unlock()
	if nc == nil || broken {
		if c.dial == nil {
			return opErr("flow-mod", xid, int(f.TableID), ErrClosed)
		}
		// Queued; the next Barrier reconnects and resends it.
		return nil
	}
	if err := nc.Send(&Message{Type: TypeFlowMod, XID: xid, Flow: f}); err != nil {
		c.markBroken(nc)
		if c.dial == nil {
			return opErr("flow-mod", xid, int(f.TableID), err)
		}
	}
	return nil
}

// Barrier commits outstanding flow-mods and blocks until the switch
// acknowledges. The barrier reply carries the switch's receipt list; any
// queued flow-mod missing from it (dropped by the channel) is resent and
// the barrier reissued — a successful Barrier therefore guarantees every
// flow-mod sent before it reached the switch exactly once. Switch-side
// rejections of individual flow-mods surface here as *SwitchError.
func (c *Client) Barrier(ctx context.Context) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	for round := 0; ; round++ {
		reply, err := c.rpcLocked(ctx, "barrier", &Message{Type: TypeBarrierRequest})
		if err != nil {
			return err
		}
		missing := c.pruneAcked(parseAckXIDs(reply.Payload), reply.XID)
		if len(missing) == 0 {
			c.mu.Lock()
			asyncErr := c.asyncErr
			c.asyncErr = nil
			c.mu.Unlock()
			if asyncErr != nil {
				return opErr("barrier", reply.XID, -1, asyncErr)
			}
			return nil
		}
		if round >= c.retry.MaxRetries {
			return opErr("barrier", reply.XID, -1, fmt.Errorf("%w: %d flow-mods unacknowledged", ErrTimeout, len(missing)))
		}
		atomic.AddInt64(&c.retries, 1)
		// Resend the gap and reissue the barrier; a send failure here
		// marks the conn broken and the next round's rpc reconnects.
		_ = c.resendMods(missing)
	}
}

// pruneAcked drops acknowledged mods from the resend queue and returns
// the mods issued before the barrier that the switch has not seen.
func (c *Client) pruneAcked(acked []uint32, barrierXID uint32) []queuedMod {
	ackSet := make(map[uint32]bool, len(acked))
	for _, x := range acked {
		ackSet[x] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var keep, missing []queuedMod
	for _, q := range c.queue {
		switch {
		case ackSet[q.xid]:
			// Acknowledged: retire.
		case q.xid < barrierXID:
			missing = append(missing, q)
			keep = append(keep, q)
		default:
			// Issued after this barrier; a later barrier covers it.
			keep = append(keep, q)
		}
	}
	c.queue = keep
	return missing
}

// Echo round-trips a payload (liveness / RTT probe).
func (c *Client) Echo(ctx context.Context, payload []byte) error {
	reply, err := c.rpc(ctx, "echo", &Message{Type: TypeEchoRequest, Payload: payload})
	if err != nil {
		return err
	}
	if string(reply.Payload) != string(payload) {
		return opErr("echo", reply.XID, -1, badFrame("echo payload mismatch"))
	}
	return nil
}

// ReadStats fetches one table's per-entry counters.
func (c *Client) ReadStats(ctx context.Context, table int) ([]uint64, error) {
	reply, err := c.rpc(ctx, "stats", &Message{Type: TypeStatsRequest, Stats: &Stats{TableID: uint8(table)}})
	if err != nil {
		return nil, err
	}
	if reply.Stats == nil {
		return nil, opErr("stats", reply.XID, table, badFrame("stats-reply without body"))
	}
	return reply.Stats.Counts, nil
}

// QueueLen reports the number of unacknowledged flow-mods in the resend
// queue (0 after a successful Barrier).
func (c *Client) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Close tears down the connection and fails in-flight operations with
// ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	nc := c.conn
	c.conn = nil
	c.broken = true
	c.mu.Unlock()
	if nc != nil {
		return nc.Close()
	}
	return nil
}

// Stats reports the unified telemetry view of the control channel
// (telemetry.Provider): the resilience counters plus the RPC latency
// profile as a percentile snapshot in nanoseconds. The JSON metrics
// endpoints export this form, and it is the only metrics surface — the
// struct-typed Metrics view it once subsumed is gone.
func (c *Client) Stats() telemetry.Snapshot {
	c.mu.Lock()
	h := telemetry.HistogramSnapshot{
		Count: uint64(c.lat.Count()),
		Mean:  c.lat.Mean(),
		Max:   c.lat.Quantile(1),
		P50:   c.lat.Quantile(0.5),
		P90:   c.lat.Quantile(0.9),
		P99:   c.lat.Quantile(0.99),
	}
	rpcs := c.rpcs
	c.mu.Unlock()
	h.Sum = h.Mean * float64(h.Count)
	return telemetry.Snapshot{
		Name: "openflow_client",
		Counters: map[string]uint64{
			"mods_sent":     uint64(atomic.LoadInt64(&c.ModsSent)),
			"mods_resent":   uint64(atomic.LoadInt64(&c.modsResent)),
			"retries":       uint64(atomic.LoadInt64(&c.retries)),
			"timeouts":      uint64(atomic.LoadInt64(&c.timeouts)),
			"reconnects":    uint64(atomic.LoadInt64(&c.reconnects)),
			"switch_errors": uint64(atomic.LoadInt64(&c.switchErrs)),
			"rpcs":          uint64(rpcs),
		},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"rpc_latency_ns": h,
		},
	}
}
