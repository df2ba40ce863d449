package nocdn

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
)

// TestFaultFlushBackoffGate verifies satellite hardening of the record
// flush path: a failed upload arms a backoff gate, further flushes defer
// without touching the network, and the gate reopens on the clock.
func TestFaultFlushBackoffGate(t *testing.T) {
	s := newTestSite(t, 1)
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	peer := s.peers[0]
	pending := peer.PendingRecords()
	if pending == 0 {
		t.Fatal("no records to flush")
	}

	now := time.Now()
	peer.SetClock(func() time.Time { return now })
	peer.FlushBackoff = faults.Policy{Base: 100 * time.Millisecond, Max: time.Second, Jitter: -1}
	metrics := hpop.NewMetrics()
	peer.SetMetrics(metrics)

	// Origin dies: the first flush fails over the network and arms the gate.
	s.originSrv.Close()
	if _, err := peer.Flush(s.originSrv.URL); err == nil {
		t.Fatal("flush to dead origin succeeded")
	}
	if got := peer.PendingRecords(); got != pending {
		t.Fatalf("records after failed flush = %d, want %d retained", got, pending)
	}
	if metrics.Counter("nocdn.peer.flush_failures") != 1 {
		t.Errorf("flush_failures = %v, want 1", metrics.Counter("nocdn.peer.flush_failures"))
	}

	// Immediate retry is deferred by the gate — no hot-retry of a dead
	// origin, and no network attempt at all.
	if _, err := peer.Flush(s.originSrv.URL); !errors.Is(err, ErrFlushDeferred) {
		t.Fatalf("flush inside gate = %v, want ErrFlushDeferred", err)
	}
	if metrics.Counter("nocdn.peer.flush_failures") != 1 {
		t.Error("deferred flush counted as a network failure")
	}

	// Past the gate, the flush retries for real — against a revived origin
	// it drains the queue and resets the backoff.
	revived := httptest.NewServer(s.origin.Handler())
	defer revived.Close()
	peer.SignUp("example.com", revived.URL)
	now = now.Add(time.Second)
	n, err := peer.Flush(revived.URL)
	if err != nil || n != pending {
		t.Fatalf("post-gate flush = %d, %v; want %d records", n, err, pending)
	}
	if peer.PendingRecords() != 0 {
		t.Error("records linger after successful flush")
	}
	// Backoff state reset: the next failure starts from Base again and an
	// immediate flush is not deferred.
	if _, err := peer.Flush(revived.URL); err != nil {
		t.Errorf("flush after success deferred or failed: %v", err)
	}
}

// TestFaultFlushBackoffGrows verifies consecutive failures widen the gate
// (capped exponential), so a long outage costs ever fewer attempts.
func TestFaultFlushBackoffGrows(t *testing.T) {
	p := NewPeer("p", 0)
	now := time.Now()
	p.SetClock(func() time.Time { return now })
	p.FlushBackoff = faults.Policy{Base: 100 * time.Millisecond, Max: time.Second, Jitter: -1}
	dead := "http://127.0.0.1:1" // nothing listens here
	p.SignUp("x", dead)
	// Seed one record directly through the handler path.
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	dropRecord(t, p, srv.URL)

	// Arm the gate with a real network failure.
	if _, err := p.Flush(dead); err == nil || errors.Is(err, ErrFlushDeferred) {
		t.Fatalf("expected a real network failure, got %v", err)
	}
	// measure advances the clock until a flush is no longer deferred; that
	// probe fails over the network again, re-arming a wider gate.
	measure := func() time.Duration {
		start := now
		for d := 50 * time.Millisecond; d <= 4*time.Second; d += 50 * time.Millisecond {
			now = start.Add(d)
			if _, err := p.Flush(dead); !errors.Is(err, ErrFlushDeferred) {
				return d
			}
		}
		t.Fatal("gate never reopened")
		return 0
	}
	first := measure()
	second := measure()
	if second <= first {
		t.Errorf("backoff did not grow: first gate %v, second gate %v", first, second)
	}
}

// TestFaultRecordQueueCap verifies the pending-record queue is bounded: the
// record endpoint rejects with 503 at the cap, and a failed-flush requeue
// sheds oldest records instead of growing without bound.
func TestFaultRecordQueueCap(t *testing.T) {
	p := NewPeer("p", 0)
	p.SignUp("x", "http://127.0.0.1:1")
	p.maxPending = 3
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		dropRecord(t, p, srv.URL)
	}
	if n := p.PendingRecords(); n != 3 {
		t.Fatalf("pending = %d, want 3", n)
	}
	// At the cap: 503 with Retry-After, record not queued.
	resp, err := http.Post(srv.URL+"/record", "text/plain",
		recordBody(UsageRecord{Provider: "x", PeerID: "p", Bytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap record status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if n := p.PendingRecords(); n != 3 {
		t.Errorf("pending after rejected drop = %d, want 3", n)
	}
	if p.DroppedRecords() != 1 {
		t.Errorf("dropped = %d, want 1", p.DroppedRecords())
	}

	// Requeue shed: a record arrives while a flush is in flight, so the
	// requeued batch plus the arrival exceed the cap and the oldest record
	// is shed instead of growing the queue.
	p2 := NewPeer("p2", 0)
	p2.maxPending = 2
	p2.FlushBackoff = faults.Policy{Base: time.Millisecond, Max: time.Millisecond, Jitter: -1}
	srv2 := httptest.NewServer(p2.Handler())
	defer srv2.Close()
	// The settlement endpoint drops a fresh record into the peer mid-flush
	// (the batch is already out of the queue), then fails the upload.
	usageFront := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dropRecord(t, p2, srv2.URL)
		http.Error(w, "settlement down", http.StatusInternalServerError)
	}))
	defer usageFront.Close()
	p2.SignUp("x", usageFront.URL)
	dropRecord(t, p2, srv2.URL)
	dropRecord(t, p2, srv2.URL)
	if _, err := p2.Flush(usageFront.URL); err == nil {
		t.Fatal("flush through a 500 succeeded")
	}
	if n := p2.PendingRecords(); n != 2 {
		t.Fatalf("pending after requeue = %d, want 2 (capped)", n)
	}
	if p2.DroppedRecords() != 1 {
		t.Fatalf("dropped = %d, want 1 (oldest shed on requeue)", p2.DroppedRecords())
	}
}

// TestFaultFlushRetriesAfter5xx verifies records survive 5xx settlements
// without loss or duplication: requeued on failure, settled exactly once on
// recovery.
func TestFaultFlushRetriesAfter5xx(t *testing.T) {
	s := newTestSite(t, 1)
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	peer := s.peers[0]
	pending := peer.PendingRecords()
	if pending == 0 {
		t.Fatal("no records pending")
	}
	now := time.Now()
	peer.SetClock(func() time.Time { return now })
	peer.FlushBackoff = faults.Policy{Base: time.Millisecond, Max: time.Millisecond, Jitter: -1}

	// A front door that 500s twice, then proxies to the real origin.
	var failures atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, "settlement down", http.StatusInternalServerError)
			return
		}
		s.origin.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	peer.SignUp("example.com", front.URL)

	for i := 0; i < 2; i++ {
		if _, err := peer.Flush(front.URL); err == nil {
			t.Fatalf("flush %d succeeded through a 500", i+1)
		}
		if n := peer.PendingRecords(); n != pending {
			t.Fatalf("flush %d: pending = %d, want %d (requeued)", i+1, n, pending)
		}
		now = now.Add(10 * time.Millisecond) // reopen the gate
	}
	n, err := peer.Flush(front.URL)
	if err != nil || n != pending {
		t.Fatalf("recovery flush = %d, %v; want %d", n, err, pending)
	}
	acc := s.origin.AccountingFor(peerID(0))
	if acc.Rejected != 0 {
		t.Errorf("5xx retries produced %d rejected records (duplicated?)", acc.Rejected)
	}
	total, _ := s.origin.TotalPageBytes("home")
	if acc.CreditedBytes != total {
		t.Errorf("credited %d bytes, want exactly %d", acc.CreditedBytes, total)
	}
}

// TestFaultLoaderDefaultClientBounded verifies satellite #2: a zero-config
// loader no longer runs on the unbounded http.DefaultClient.
func TestFaultLoaderDefaultClientBounded(t *testing.T) {
	l := &Loader{OriginURL: "http://example.invalid"}
	c := l.client()
	if c == http.DefaultClient {
		t.Fatal("loader fell back to http.DefaultClient")
	}
	if c.Timeout != DefaultFetchTimeout {
		t.Errorf("default client timeout = %v, want %v", c.Timeout, DefaultFetchTimeout)
	}
	l2 := &Loader{OriginURL: "http://example.invalid", FetchTimeout: 3 * time.Second}
	if got := l2.client().Timeout; got != 3*time.Second {
		t.Errorf("custom FetchTimeout client timeout = %v", got)
	}
	// NewPeer's outbound client is bounded too.
	p := NewPeer("p", 0)
	if p.httpClient.Timeout != DefaultPeerFetchTimeout {
		t.Errorf("peer client timeout = %v, want %v", p.httpClient.Timeout, DefaultPeerFetchTimeout)
	}
	// OpenPeer applies a daemon's -fetch-timeout and keeps the pooled
	// transport.
	p, err := OpenPeer(PeerConfig{ID: "p", FetchTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.httpClient.Timeout != 2*time.Second {
		t.Errorf("FetchTimeout not applied: %v", p.httpClient.Timeout)
	}
	if p.httpClient.Transport == nil {
		t.Error("OpenPeer dropped the peer's pooled transport")
	}
}

// TestFaultLoaderRetriesTransient drives the loader's wrapper fetch through
// an injector that 503s then recovers, checking the retry counters.
func TestFaultLoaderRetriesTransient(t *testing.T) {
	s := newTestSite(t, 1)
	sched, err := faults.ParseSchedule("status 503 p=1 match=/wrapper from=0 to=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(sched)
	metrics := hpop.NewMetrics()
	s.loader.HTTPClient = &http.Client{Transport: inj.Transport(nil)}
	s.loader.Retry = faults.Policy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond, Jitter: -1}
	s.loader.Metrics = metrics

	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatalf("load through 503 burst: %v", err)
	}
	if len(res.Body) != 5 {
		t.Fatalf("assembled %d objects", len(res.Body))
	}
	if got := metrics.Counter("nocdn.loader.retries"); got != 2 {
		t.Errorf("retries = %v, want 2 (one per injected 503)", got)
	}
	if got := metrics.Counter("nocdn.loader.giveups"); got != 0 {
		t.Errorf("giveups = %v, want 0", got)
	}
}

// recordBody is a /record body: the record's leaf.
func recordBody(rec UsageRecord) io.Reader {
	return bytes.NewReader(rec.LeafBytes())
}

// dropRecord posts one record for provider "x" to peer p at peerURL.
func dropRecord(t *testing.T, p *Peer, peerURL string) {
	t.Helper()
	resp, err := http.Post(peerURL+"/record", "text/plain",
		recordBody(UsageRecord{Provider: "x", PeerID: p.ID, Bytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("record drop status = %d", resp.StatusCode)
	}
}
