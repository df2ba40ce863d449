// Package cdntest is the black-box CDN acceptance suite for the NoCDN
// fleet, in the style of alphagov/cdn-acceptance-tests: every test boots a
// real origin + N peers (+ loader where the case needs one) over local
// HTTP, drives requests through the peer tier, and asserts observable edge
// behavior — cache state via X-Cache/Age, serve-stale windows, failover
// order, and the no-manipulation guarantee. Nothing here reaches into peer
// or origin internals on the serve path: if the suite passes, an operator
// watching the same headers would draw the same conclusions.
//
// Suites:
//
//	cache_test.go        — hit/miss/TTL, conditional revalidation, Vary
//	servestale_test.go   — stale-while-revalidate, stale-if-error, hash-epoch
//	failover_test.go     — replica peers, origin fallback, origin outages
//	nomanipulate_test.go — byte/header pass-through, tamper detection
package cdntest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/adversary"
	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

// Clock is the shared fake time source injected into the origin and every
// peer, so TTL expiry is driven by Advance, not sleeps.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts a clock at an arbitrary fixed instant.
func NewClock() *Clock {
	return &Clock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

// Now returns the current fake time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Gate wraps a server's handler with kill switches: Down fails every
// request, ContentDown only the origin's /content paths (wrapper stays up
// — the brownout interplay cases need exactly that split). It also counts
// /content results by status so tests can assert "the 304 saved body
// bytes" without white-box access.
type Gate struct {
	inner       http.Handler
	Down        atomic.Bool
	ContentDown atomic.Bool

	// ContentRequests counts /content requests that reached the inner
	// handler; Content304s counts how many were answered 304.
	ContentRequests atomic.Int64
	Content304s     atomic.Int64
}

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	content := strings.HasPrefix(r.URL.Path, "/content")
	if g.Down.Load() || (content && g.ContentDown.Load()) {
		http.Error(w, "gate: injected outage", http.StatusBadGateway)
		return
	}
	if !content {
		g.inner.ServeHTTP(w, r)
		return
	}
	g.ContentRequests.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	g.inner.ServeHTTP(sw, r)
	if sw.status == http.StatusNotModified {
		g.Content304s.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// Config shapes one stack.
type Config struct {
	// Peers is how many peers to boot (default 1).
	Peers int
	// PeerCacheBytes sizes each peer's memory tier (default 8 MiB).
	PeerCacheBytes int
	// DiskCache attaches a disk tier to every peer.
	DiskCache bool
	// Replicas is passed to the origin's wrapper generation.
	Replicas int
	// OriginOpts appends origin options (cache policy, chunking, ...).
	OriginOpts []nocdn.OriginOption
}

// Stack is one live origin + N peers, all over real HTTP, sharing one fake
// clock. Tests talk to it like any HTTP client would.
type Stack struct {
	T        *testing.T
	Provider string
	Clock    *Clock

	Origin     *nocdn.Origin
	OriginGate *Gate
	OriginSrv  *httptest.Server

	Peers []*nocdn.Peer
	// PeerTampers are the malicious-peer switches: each peer is served
	// through one (inside its gate), off until a test sets On.
	PeerTampers []*adversary.Tamper
	PeerGates   []*Gate
	PeerSrvs    []*httptest.Server

	Health *hpop.HealthRegistry
	client *http.Client
}

// NewStack boots the stack; everything is torn down via t.Cleanup.
func NewStack(t *testing.T, cfg Config) *Stack {
	t.Helper()
	if cfg.Peers <= 0 {
		cfg.Peers = 1
	}
	if cfg.PeerCacheBytes <= 0 {
		cfg.PeerCacheBytes = 8 << 20
	}
	s := &Stack{
		T:        t,
		Provider: "acceptance.example",
		Clock:    NewClock(),
		Health:   hpop.NewHealthRegistry(hpop.BreakerConfig{}),
		client:   &http.Client{Timeout: 10 * time.Second},
	}
	opts := append([]nocdn.OriginOption{
		nocdn.WithClock(s.Clock.Now),
		nocdn.WithReplicas(cfg.Replicas),
	}, cfg.OriginOpts...)
	s.Origin = nocdn.NewOrigin(s.Provider, opts...)
	s.OriginGate = &Gate{inner: s.Origin.Handler()}
	s.OriginSrv = httptest.NewServer(s.OriginGate)
	t.Cleanup(s.OriginSrv.Close)

	for i := 0; i < cfg.Peers; i++ {
		p := nocdn.NewPeer("peer-"+strconv.Itoa(i), cfg.PeerCacheBytes)
		p.SetClock(s.Clock.Now)
		p.SetMetrics(hpop.NewMetrics())
		p.EnableTelemetry(0)
		if cfg.DiskCache {
			if err := p.AttachDiskCache(t.TempDir(), 64<<20, 8<<20); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.CloseDiskCache)
		}
		p.SignUp(s.Provider, s.OriginSrv.URL)
		tamper := &adversary.Tamper{Next: p.Handler()}
		gate := &Gate{inner: tamper}
		srv := httptest.NewServer(gate)
		t.Cleanup(srv.Close)
		s.Peers = append(s.Peers, p)
		s.PeerTampers = append(s.PeerTampers, tamper)
		s.PeerGates = append(s.PeerGates, gate)
		s.PeerSrvs = append(s.PeerSrvs, srv)
		s.Origin.RegisterPeer(p.ID, srv.URL, float64(10+10*i))
	}
	return s
}

// Publish registers an object (Content-Type auto-detected from the path).
func (s *Stack) Publish(path string, data []byte) {
	s.Origin.AddObject(path, data)
}

// PublishPage registers a one-container page over already-published paths.
func (s *Stack) PublishPage(name, container string, embedded ...string) {
	s.T.Helper()
	if err := s.Origin.AddPage(nocdn.Page{Name: name, Container: container, Embedded: embedded}); err != nil {
		s.T.Fatal(err)
	}
}

// Loader builds a page loader bound to this stack's origin.
func (s *Stack) Loader() *nocdn.Loader {
	return &nocdn.Loader{
		OriginURL:    s.OriginSrv.URL,
		Metrics:      hpop.NewMetrics(),
		Health:       s.Health,
		Retry:        faults.Policy{MaxAttempts: 1},
		FetchTimeout: 5 * time.Second,
		Now:          s.Clock.Now,
	}
}

// Resp is one edge response, body drained.
type Resp struct {
	Status int
	Header http.Header
	Body   []byte
}

// XCache returns the response's X-Cache verdict.
func (r *Resp) XCache() string { return r.Header.Get(nocdn.XCacheHeader) }

// Age returns the response's Age header in seconds (-1 when absent or
// malformed).
func (r *Resp) Age() int {
	v := r.Header.Get(nocdn.AgeHeader)
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}

// Get fetches path through peer i with optional header pairs
// ("Name", "value", ...).
func (s *Stack) Get(peer int, path string, hdr ...string) *Resp {
	s.T.Helper()
	if len(hdr)%2 != 0 {
		s.T.Fatalf("Get: odd header pairs %v", hdr)
	}
	req, err := http.NewRequest(http.MethodGet, s.PeerSrvs[peer].URL+"/proxy/"+s.Provider+path, nil)
	if err != nil {
		s.T.Fatal(err)
	}
	for i := 0; i < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := s.client.Do(req)
	if err != nil {
		s.T.Fatalf("GET %s via peer %d: %v", path, peer, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.T.Fatalf("GET %s via peer %d: read body: %v", path, peer, err)
	}
	return &Resp{Status: resp.StatusCode, Header: resp.Header, Body: body}
}

// GetOK is Get plus a 200 assertion.
func (s *Stack) GetOK(peer int, path string, hdr ...string) *Resp {
	s.T.Helper()
	r := s.Get(peer, path, hdr...)
	if r.Status != http.StatusOK {
		s.T.Fatalf("GET %s via peer %d: status %d, want 200 (body %q)", path, peer, r.Status, r.Body)
	}
	return r
}

// WantXCache asserts one GET's X-Cache verdict and returns the response.
func (s *Stack) WantXCache(peer int, path, want string, hdr ...string) *Resp {
	s.T.Helper()
	r := s.GetOK(peer, path, hdr...)
	if got := r.XCache(); got != want {
		s.T.Fatalf("GET %s via peer %d: X-Cache = %q, want %q", path, peer, got, want)
	}
	return r
}

// Eventually polls fn (every few milliseconds, up to ~2s of real time) for
// background work — stale-while-revalidate refreshes — to land.
func (s *Stack) Eventually(fn func() bool, msg string) {
	s.T.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.T.Fatal("Eventually: " + msg)
}
