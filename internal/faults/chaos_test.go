// Chaos suite: seeded end-to-end fault scenarios driving real HPoP
// services — NoCDN page loads, usage-record settlement, attic replication —
// and asserting the recovery invariants:
//
//  1. no hash-unverified bytes ever reach an assembled page,
//  2. usage-record accounting stays exact under retries (no double credit),
//  3. replication converges after a blackout,
//  4. everything is race-clean (run with -race; CI does).
//
// The same seed reproduces the same fault schedule and the same pass/fail.
// Every scenario runs seeds 1, 7 and 1337 as subtests; HPOP_CHAOS_SEED
// narrows the run to one seed.
package faults_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"hpop/internal/attic"
	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// forChaosSeeds runs scenario once per seed as subtest "seedN": seeds 1, 7
// and 1337, or only HPOP_CHAOS_SEED when it is set — the subtest name is
// what reproduces a failure.
func forChaosSeeds(t *testing.T, scenario func(t *testing.T, seed uint64)) {
	t.Helper()
	seeds := []uint64{1, 7, 1337}
	if s := os.Getenv("HPOP_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HPOP_CHAOS_SEED %q: %v", s, err)
		}
		seeds = []uint64{n}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { scenario(t, seed) })
	}
}

func mustSchedule(t *testing.T, seed uint64, text string) *faults.Schedule {
	t.Helper()
	sched, err := faults.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	sched.Seed = seed
	return sched
}

// fastRetry is a retry policy tuned for tests: real backoff shape,
// millisecond scale, no jitter (delays deterministic).
func fastRetry(attempts int) faults.Policy {
	return faults.Policy{
		MaxAttempts: attempts,
		Base:        time.Millisecond,
		Max:         5 * time.Millisecond,
		Jitter:      -1,
	}
}

// chaosSite is an origin with one page and peerCount peer servers, all
// signed up — the NoCDN scenario fixture.
type chaosSite struct {
	origin    *nocdn.Origin
	originSrv *httptest.Server
	peers     []*nocdn.Peer
	peerSrvs  []*httptest.Server
	content   map[string][]byte
}

func newChaosSite(t *testing.T, peerCount int) *chaosSite {
	t.Helper()
	o := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	content := map[string][]byte{
		"/index.html": bytes.Repeat([]byte("<html>"), 500),
	}
	for _, suffix := range []string{"a", "b", "c", "d"} {
		content["/img/"+suffix+".png"] = bytes.Repeat([]byte(suffix), 10000)
	}
	for path, data := range content {
		o.AddObject(path, data)
	}
	if err := o.AddPage(nocdn.Page{
		Name:      "home",
		Container: "/index.html",
		Embedded:  []string{"/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"},
	}); err != nil {
		t.Fatal(err)
	}
	site := &chaosSite{origin: o, content: content}
	site.originSrv = httptest.NewServer(o.Handler())
	t.Cleanup(site.originSrv.Close)
	for i := 0; i < peerCount; i++ {
		id := "peer-" + string(rune('a'+i))
		p := nocdn.NewPeer(id, 0)
		p.SignUp("example.com", site.originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		t.Cleanup(srv.Close)
		site.peers = append(site.peers, p)
		site.peerSrvs = append(site.peerSrvs, srv)
		o.RegisterPeer(id, srv.URL, float64(10+i*20))
	}
	return site
}

func (s *chaosSite) peerIDs() []string {
	ids := make([]string, len(s.peers))
	for i := range s.peers {
		ids[i] = "peer-" + string(rune('a'+i))
	}
	return ids
}

// TestChaosPageLoadInvariants drives page loads at concurrency 6 through a
// schedule of blackouts, 5xx bursts, bit flips, resets, and truncated
// fallbacks. Loads may fail; loads that succeed must be perfect: every byte
// hash-verified against the origin copy, every serving peer's record
// delivered, and settlement crediting exactly the verified bytes.
func TestChaosPageLoadInvariants(t *testing.T) { forChaosSeeds(t, chaosPageLoadInvariants) }

func chaosPageLoadInvariants(t *testing.T, seed uint64) {
	site := newChaosSite(t, 4)
	sched := mustSchedule(t, seed, `
blackout match=/proxy/ from=0 to=6
status 503 p=0.5 match=/proxy/ from=6 to=20
bitflip p=0.4 match=/proxy/ from=20 to=40
reset p=0.3 match=/proxy/ from=40 to=60
truncate p=0.5 match=/content from=0 to=6
latency 1ms p=0.2
`)
	inj := faults.NewInjector(sched)
	metrics := hpop.NewMetrics()
	loader := &nocdn.Loader{
		OriginURL:    site.originSrv.URL,
		HTTPClient:   &http.Client{Transport: inj.Transport(nil)},
		Concurrency:  6,
		FetchTimeout: 2 * time.Second,
		Retry:        fastRetry(3),
		Metrics:      metrics,
	}

	const views = 12
	successes := 0
	expectedCredit := make(map[string]int64)
	for v := 0; v < views; v++ {
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Logf("view %d failed (tolerated): %v", v+1, err)
			continue
		}
		successes++
		// Invariant 1: nothing unverified reaches the page. Every object
		// must be byte-identical to the origin's copy even though peers
		// served bit-flipped and truncated bodies along the way.
		if len(res.Body) != len(site.content) {
			t.Fatalf("view %d: assembled %d objects, want %d", v+1, len(res.Body), len(site.content))
		}
		for path, want := range site.content {
			if !bytes.Equal(res.Body[path], want) {
				t.Fatalf("view %d: corrupted bytes reached the page for %s", v+1, path)
			}
		}
		// The record path is clean in this schedule, so every serving peer
		// got its usage record.
		if res.RecordsDelivered != len(res.PeerBytes) {
			t.Fatalf("view %d: delivered %d records for %d serving peers",
				v+1, res.RecordsDelivered, len(res.PeerBytes))
		}
		for id, n := range res.PeerBytes {
			expectedCredit[id] += n
		}
	}
	if successes < views/2 {
		t.Fatalf("only %d/%d views succeeded; fault budget should exhaust", successes, views)
	}
	if got := inj.Injected()[faults.KindBlackout]; got != 6 {
		t.Fatalf("blackouts fired %d times, want exactly 6 (window budget)", got)
	}
	t.Logf("%d/%d views ok; injected %v; loader retries=%v giveups=%v fallbacks=%v",
		successes, views, inj.Injected(),
		metrics.Counter("nocdn.loader.retries"),
		metrics.Counter("nocdn.loader.giveups"),
		metrics.Counter("nocdn.loader.fallbacks"))

	// Settle: flush every peer against the (healthy) origin, then check
	// invariant 2 — credited bytes equal verified bytes exactly, nothing
	// double-counted, no honest peer punished.
	for i, p := range site.peers {
		if _, err := p.Flush(site.originSrv.URL); err != nil {
			t.Fatalf("flush peer %d: %v", i, err)
		}
		if n := p.PendingRecords(); n != 0 {
			t.Fatalf("peer %d still holds %d records after flush", i, n)
		}
	}
	for _, id := range site.peerIDs() {
		acc := site.origin.AccountingFor(id)
		if acc.CreditedBytes != expectedCredit[id] {
			t.Errorf("peer %s credited %d bytes, verified total is %d",
				id, acc.CreditedBytes, expectedCredit[id])
		}
		if acc.Rejected != 0 {
			t.Errorf("honest peer %s had %d rejected records", id, acc.Rejected)
		}
		if acc.Suspended {
			t.Errorf("honest peer %s suspended under chaos", id)
		}
	}
}

// TestChaosRecordSettlementExactUnderRetries forces the classic
// double-spend hazard: record deliveries whose response is lost (the peer
// stored the record, the client timed out and retried) and record uploads
// rejected with 5xx. The loader signs each record once and re-posts the
// same bytes, so the origin's nonce cache settles each exactly once:
// credited == verified bytes, and the duplicates surface as exactly two
// rejected records.
func TestChaosRecordSettlementExactUnderRetries(t *testing.T) {
	forChaosSeeds(t, chaosRecordSettlementExactUnderRetries)
}

func chaosRecordSettlementExactUnderRetries(t *testing.T, seed uint64) {
	site := newChaosSite(t, 2)
	// Window arithmetic: the first two /record posts stall (stored
	// server-side, lost client-side -> exactly 2 duplicates), the next six
	// reset before reaching the peer (retries, no duplicates), everything
	// later is clean. The first two /usage uploads 502 to exercise flush
	// requeue + backoff.
	sched := mustSchedule(t, seed, `
stall 500ms p=1 match=/record from=0 to=2
reset p=1 match=/record from=2 to=8
status 502 p=1 match=/usage from=0 to=2
`)
	inj := faults.NewInjector(sched)
	loader := &nocdn.Loader{
		OriginURL:    site.originSrv.URL,
		HTTPClient:   &http.Client{Transport: inj.Transport(nil)},
		Concurrency:  6,
		FetchTimeout: 100 * time.Millisecond,
		// Budget of 12 attempts > the 8-fault budget on /record, so every
		// record delivers no matter how attempts interleave.
		Retry: faults.Policy{MaxAttempts: 12, Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1},
	}
	for _, p := range site.peers {
		p.SetHTTPClient(&http.Client{Transport: inj.Transport(nil)})
		p.FlushBackoff = faults.Policy{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1}
	}

	expectedCredit := make(map[string]int64)
	for v := 0; v < 3; v++ {
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Fatalf("view %d: %v (content path is clean in this schedule)", v+1, err)
		}
		if res.RecordsDelivered != len(res.PeerBytes) {
			t.Fatalf("view %d: %d records delivered for %d serving peers",
				v+1, res.RecordsDelivered, len(res.PeerBytes))
		}
		for id, n := range res.PeerBytes {
			expectedCredit[id] += n
		}
	}
	if got := inj.Injected()[faults.KindStall]; got != 2 {
		t.Fatalf("stalls fired %d times, want exactly 2", got)
	}

	// Flush until both queues drain; the 502 window and the backoff gate
	// make the first rounds fail or defer.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range site.peers {
		for p.PendingRecords() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("flush did not drain: %d records pending", p.PendingRecords())
			}
			if _, err := p.Flush(site.originSrv.URL); err != nil {
				if !errors.Is(err, nocdn.ErrFlushDeferred) {
					t.Logf("flush failed (will retry): %v", err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	// Invariant 2: exact accounting. The stored-then-retried deliveries are
	// rejected replays, never extra credit.
	var totalRejected int64
	for _, id := range site.peerIDs() {
		acc := site.origin.AccountingFor(id)
		if acc.CreditedBytes != expectedCredit[id] {
			t.Errorf("peer %s credited %d bytes, verified total is %d (double credit?)",
				id, acc.CreditedBytes, expectedCredit[id])
		}
		if acc.Suspended {
			t.Errorf("honest peer %s suspended", id)
		}
		totalRejected += acc.Rejected
	}
	if totalRejected != 2 {
		t.Errorf("rejected records = %d, want exactly 2 (one per stalled delivery)", totalRejected)
	}
}

// startChaosAttic boots a real HPoP hosting an attic, as the attic tests do.
func startChaosAttic(t *testing.T) (*attic.Attic, string) {
	t.Helper()
	a := attic.New("owner", "hunter2")
	h := hpop.New(hpop.Config{Name: "chaos"})
	if err := h.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Stop(context.Background()) })
	a.SetBaseURL(h.URL())
	return a, h.URL()
}

// TestChaosReplicationConvergesAfterBlackout replicates an attic into a
// friend's attic whose link blacks out, then serves a 5xx burst while
// recovering. Invariant 3: repeated Sync passes converge to a complete,
// correct replica — confirmed pushes are never re-sent, interrupted ones
// resume.
func TestChaosReplicationConvergesAfterBlackout(t *testing.T) {
	forChaosSeeds(t, chaosReplicationConvergesAfterBlackout)
}

func chaosReplicationConvergesAfterBlackout(t *testing.T, seed uint64) {
	src, _ := startChaosAttic(t)
	dst, dstURL := startChaosAttic(t)
	dstClient := dst.OwnerClient(dstURL)
	if err := dstClient.Mkcol("/backups"); err != nil {
		t.Fatal(err)
	}

	files := map[string]string{
		"/docs/a.txt":   "alpha",
		"/docs/b.txt":   "bravo",
		"/photos/c.bin": string(bytes.Repeat([]byte{0xC3}, 4096)),
	}
	src.FS().MkdirAll("/docs")
	src.FS().MkdirAll("/photos")
	for path, data := range files {
		if _, err := src.FS().Write(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}

	// The friend's box goes dark for the first 5 requests, then answers
	// half its requests 503 for the next 10 — the chaos transport sits on
	// the destination WebDAV client only.
	sched := mustSchedule(t, seed, "blackout p=1 from=0 to=5\nstatus 503 p=0.5 from=5 to=15")
	inj := faults.NewInjector(sched)
	dstClient.HTTPClient = &http.Client{Transport: inj.Transport(nil)}

	rep := attic.NewReplicator(src.FS(), dstClient, "/backups/source")
	rep.Retry = fastRetry(3)

	passes, converged := 0, false
	for passes = 1; passes <= 25; passes++ {
		if _, err := rep.SyncContext(context.Background(), "/"); err == nil {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("replication did not converge in %d passes (injected %v)", passes-1, inj.Injected())
	}
	if passes == 1 {
		t.Fatal("first pass succeeded through a total blackout — faults not injected?")
	}
	t.Logf("converged after %d passes; injected %v", passes, inj.Injected())

	// Complete and correct replica.
	for path, want := range files {
		got, err := dst.FS().Read("/backups/source" + path)
		if err != nil {
			t.Fatalf("replica missing %s: %v", path, err)
		}
		if string(got) != want {
			t.Fatalf("replica %s corrupted", path)
		}
	}

	// Steady state: one more pass moves nothing (confirmed pushes were
	// recorded despite the chaos — no re-uploads).
	stats, err := rep.SyncContext(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Uploaded != 0 {
		t.Errorf("steady-state pass re-uploaded %d files", stats.Uploaded)
	}
	if stats.Skipped != len(files) {
		t.Errorf("steady-state skipped %d, want %d", stats.Skipped, len(files))
	}
}
