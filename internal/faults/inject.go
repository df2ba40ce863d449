package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
)

// ErrInjected is the sentinel every injected transport error matches via
// errors.Is, so tests can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected fault")

// InjectedError is the error returned for reset and blackout faults.
type InjectedError struct {
	Kind Kind
	Op   string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s: %s", e.Kind, e.Op)
}

// Is reports a match against ErrInjected.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Timeout implements net.Error.
func (e *InjectedError) Timeout() bool { return false }

// Temporary implements net.Error: injected faults model transient
// residential failures, so retry layers should treat them as such.
func (e *InjectedError) Temporary() bool { return true }

// Decision is the outcome of evaluating the schedule for one request.
type Decision struct {
	// Kind is KindNone when no rule fired.
	Kind Kind
	// Rule is the index of the rule that fired, -1 otherwise.
	Rule   int
	Dur    time.Duration
	Status int
}

// Injector evaluates a Schedule request by request; one injector may be
// shared by many clients and listeners.
type Injector struct {
	sched *Schedule
	// mu makes one request's walk over the rules atomic: it takes its window
	// position in every matching rule at once, so which positions meet in
	// one request — and with it each rule's fired total — does not depend on
	// goroutine interleaving.
	mu sync.Mutex
	// counts[i] counts requests matching rule i's filter (window position).
	counts []atomic.Uint64
	// injected[k] counts fired faults per kind.
	injected [kindCount]atomic.Int64

	// Metrics, when non-nil, mirrors injected-fault counts as
	// "faults.injected.<kind>" counters.
	Metrics *hpop.Metrics
}

// NewInjector builds an injector for the schedule.
func NewInjector(s *Schedule) *Injector {
	return &Injector{sched: s, counts: make([]atomic.Uint64, len(s.Rules))}
}

// Schedule returns the schedule being evaluated.
func (in *Injector) Schedule() *Schedule { return in.sched }

// Decide evaluates the schedule for one request against target (a URL or
// remote address). The first matching in-window rule whose probability draw
// fires wins; every matching rule's window counter advances regardless, so
// per-rule fault budgets are a pure function of the seed.
func (in *Injector) Decide(target string) Decision {
	d := Decision{Rule: -1}
	in.mu.Lock()
	for i := range in.sched.Rules {
		r := &in.sched.Rules[i]
		if r.Match != "" && !strings.Contains(target, r.Match) {
			continue
		}
		k := in.counts[i].Add(1) - 1
		if d.Kind != KindNone {
			continue // already fired; just advance later counters
		}
		if k < uint64(r.From) || (r.To > 0 && k >= uint64(r.To)) {
			continue
		}
		if r.P < 1 && ruleDraw(in.sched.Seed, i, k) >= r.P {
			continue
		}
		d = Decision{Kind: r.Kind, Rule: i, Dur: r.Dur, Status: r.Status}
	}
	in.mu.Unlock()
	if d.Kind != KindNone {
		in.injected[d.Kind].Add(1)
		in.Metrics.Inc("faults.injected." + d.Kind.String())
	}
	return d
}

// Injected returns how many faults of each kind have fired.
func (in *Injector) Injected() map[Kind]int64 {
	out := make(map[Kind]int64)
	for k := Kind(1); k < kindCount; k++ {
		if n := in.injected[k].Load(); n > 0 {
			out[k] = n
		}
	}
	return out
}

// InjectedTotal returns the total number of fired faults.
func (in *Injector) InjectedTotal() int64 {
	var n int64
	for k := Kind(1); k < kindCount; k++ {
		n += in.injected[k].Load()
	}
	return n
}

// ruleDraw returns a uniform [0,1) draw that is a pure function of
// (seed, rule, k) — a splitmix64 finalizer over the mixed inputs.
func ruleDraw(seed uint64, rule int, k uint64) float64 {
	x := seed ^ (uint64(rule)+1)*0x9E3779B97F4A7C15 ^ (k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// sleepCtx sleeps for d or until ctx is done, returning ctx's error if it
// won.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- client-side faults: http.RoundTripper ----

// Transport wraps inner (nil means http.DefaultTransport) with this
// injector's faults. Reset and blackout surface as *InjectedError before
// the request leaves the process; status faults synthesize a response the
// origin never sees; truncate, bitflip, and stall forward the request and
// corrupt the returned body stream.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &chaosTransport{in: in, inner: inner}
}

type chaosTransport struct {
	in    *Injector
	inner http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.Decide(req.URL.String())
	switch d.Kind {
	case KindNone:
		return t.inner.RoundTrip(req)
	case KindReset, KindBlackout:
		return nil, &InjectedError{Kind: d.Kind, Op: req.Method + " " + req.URL.String()}
	case KindLatency:
		if err := sleepCtx(req.Context(), d.Dur); err != nil {
			return nil, err
		}
		return t.inner.RoundTrip(req)
	case KindStatus:
		body := fmt.Sprintf("faults: injected status %d", d.Status)
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", d.Status, http.StatusText(d.Status)),
			StatusCode:    d.Status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch d.Kind {
	case KindTruncate:
		keep := resp.ContentLength / 2
		if keep <= 0 {
			keep = 1
		}
		resp.Body = &truncatedBody{rc: resp.Body, remaining: keep}
	case KindBitflip:
		resp.Body = &bitflipBody{rc: resp.Body}
	case KindStall:
		resp.Body = &stallBody{rc: resp.Body, d: d.Dur, ctx: req.Context()}
	}
	return resp, nil
}

// truncatedBody delivers remaining bytes then fails with
// io.ErrUnexpectedEOF — a connection cut mid-transfer.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int64
}

// Read implements io.Reader.
func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		return n, io.EOF // body was shorter than the cut point
	}
	if err == nil && b.remaining <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Close implements io.Closer.
func (b *truncatedBody) Close() error { return b.rc.Close() }

// bitflipBody flips the first byte of the stream — corruption hash
// verification must catch.
type bitflipBody struct {
	rc      io.ReadCloser
	flipped bool
}

// Read implements io.Reader.
func (b *bitflipBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && !b.flipped {
		p[0] ^= 0xFF
		b.flipped = true
	}
	return n, err
}

// Close implements io.Closer.
func (b *bitflipBody) Close() error { return b.rc.Close() }

// stallBody delays every read by d (slow-loris), honoring the request
// context so per-request timeouts cut it off.
type stallBody struct {
	rc  io.ReadCloser
	d   time.Duration
	ctx context.Context
}

// Read implements io.Reader.
func (b *stallBody) Read(p []byte) (int, error) {
	if err := sleepCtx(b.ctx, b.d); err != nil {
		return 0, err
	}
	return b.rc.Read(p)
}

// Close implements io.Closer.
func (b *stallBody) Close() error { return b.rc.Close() }

// ---- server-side faults: net.Listener ----

// Listener wraps ln with this injector's faults, applied per accepted
// connection (matched against the remote address). Reset, blackout,
// status, truncate, and bitflip all abruptly close the new connection (the
// client sees EOF/RST); latency delays the first read; stall delays every
// read.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, in: in}
}

type chaosListener struct {
	net.Listener
	in *Injector
}

// Accept implements net.Listener.
func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		d := l.in.Decide(c.RemoteAddr().String())
		switch d.Kind {
		case KindNone:
			return c, nil
		case KindLatency:
			return &delayConn{Conn: c, initial: d.Dur}, nil
		case KindStall:
			return &delayConn{Conn: c, each: d.Dur}, nil
		default: // reset, blackout, status, truncate, bitflip: abrupt close
			c.Close()
		}
	}
}

// delayConn injects read-side latency: initial once, each per read.
type delayConn struct {
	net.Conn
	initial time.Duration
	each    time.Duration
	once    sync.Once
}

// Read implements net.Conn.
func (c *delayConn) Read(p []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.initial) })
	if c.each > 0 {
		time.Sleep(c.each)
	}
	return c.Conn.Read(p)
}
