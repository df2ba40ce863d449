package faults_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// httptestNewServer starts a test server that closes with the test.
func httptestNewServer(t *testing.T, h http.Handler) *httptest.Server {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// fastBreaker is a breaker config tuned for tests: real lifecycle, tens of
// milliseconds instead of seconds.
func fastBreaker() hpop.BreakerConfig {
	return hpop.BreakerConfig{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       2,
		Cooldown:         50 * time.Millisecond,
		ProbeBudget:      1,
		ReadmitAfter:     2,
	}
}

// newSelfHealSite is newChaosSite plus the self-healing wiring: the origin
// lists one replica per object and carries its own health registry.
func newSelfHealSite(t *testing.T, peerCount int, reg *hpop.HealthRegistry) *chaosSite {
	t.Helper()
	o := nocdn.NewOrigin("example.com",
		nocdn.WithRNG(sim.NewRNG(7)),
		nocdn.WithReplicas(1),
		nocdn.WithHealthRegistry(reg))
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
	site.originSrv = httptestNewServer(t, o.Handler())
	for i := 0; i < peerCount; i++ {
		id := "peer-" + string(rune('a'+i))
		p := nocdn.NewPeer(id, 0)
		p.SignUp("example.com", site.originSrv.URL)
		srv := httptestNewServer(t, p.Handler())
		site.peers = append(site.peers, p)
		site.peerSrvs = append(site.peerSrvs, srv)
		o.RegisterPeer(id, srv.URL, float64(10+i*20))
	}
	return site
}

// TestChaosFlappingPeer drives the client side of the self-healing loop
// through a flapping peer: peer-a blacks out, its breaker opens (pages keep
// loading off replicas), open-circuit skips stop hammering it, and once the
// blackout lifts the half-open probe cycle re-admits it. Throughout: no
// unverified bytes reach any page, and settlement stays exact — failover
// serves settle under the replica's own key.
func TestChaosFlappingPeer(t *testing.T) { forChaosSeeds(t, chaosFlappingPeer) }

func chaosFlappingPeer(t *testing.T, seed uint64) {
	reg := hpop.NewHealthRegistry(fastBreaker())
	metrics := hpop.NewMetrics()
	reg.SetMetrics(metrics)
	site := newSelfHealSite(t, 3, hpop.NewHealthRegistry(fastBreaker()))

	// peer-a flaps: its first 12 proxy requests fail as unreachable, then it
	// is healthy again. The breaker stops most traffic reaching it, so the
	// budget drains via half-open probes.
	sched := mustSchedule(t, seed, `
blackout match=`+site.peerSrvs[0].URL+`/proxy from=0 to=12
`)
	inj := faults.NewInjector(sched)
	loader := &nocdn.Loader{
		OriginURL:    site.originSrv.URL,
		HTTPClient:   &http.Client{Transport: inj.Transport(nil)},
		Concurrency:  6,
		FetchTimeout: 2 * time.Second,
		Retry:        fastRetry(2),
		Metrics:      metrics,
		Health:       reg,
		// One visitor, whose stable map names peer-a.
		ClientID: "visitor",
	}

	expectedCredit := make(map[string]int64)
	checkView := func(v int) {
		t.Helper()
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Fatalf("view %d: %v (replicas should cover a single flapping peer)", v, err)
		}
		if len(res.Body) != len(site.content) {
			t.Fatalf("view %d: assembled %d objects, want %d", v, len(res.Body), len(site.content))
		}
		for path, want := range site.content {
			if !bytes.Equal(res.Body[path], want) {
				t.Fatalf("view %d: unverified bytes reached the page for %s", v, path)
			}
		}
		if res.RecordsDelivered != len(res.PeerBytes) {
			t.Fatalf("view %d: delivered %d records for %d serving peers",
				v, res.RecordsDelivered, len(res.PeerBytes))
		}
		for id, n := range res.PeerBytes {
			expectedCredit[id] += n
		}
	}

	// Phase 1: views during the blackout. The breaker must trip at least
	// once (it may already be half-open again if a probe landed after the
	// budget drained — that's the loop working, not a failure).
	for v := 1; v <= 4; v++ {
		checkView(v)
	}
	if metrics.Counter("hpop.breaker.opens") < 1 {
		t.Fatalf("peer-a breaker never opened (state now %v)", reg.State("peer-a"))
	}

	// Phase 2: keep loading until the half-open probe cycle re-admits
	// peer-a (the blackout budget drains through probes).
	deadline := time.Now().Add(10 * time.Second)
	v := 5
	for !reg.Healthy("peer-a") {
		if time.Now().After(deadline) {
			t.Fatalf("peer-a never re-admitted; state=%v injected=%v",
				reg.State("peer-a"), inj.Injected())
		}
		time.Sleep(20 * time.Millisecond) // let the cooldown arm a probe
		checkView(v)
		v++
	}
	if got := reg.Snapshot(); len(got.Peers) == 0 {
		t.Fatal("empty health snapshot after recovery")
	}
	// The re-admitted peer serves again: at least one more view should be
	// able to credit it (its breaker is closed; candidates rank it normally).
	checkView(v)

	if got := inj.Injected()[faults.KindBlackout]; got == 0 || got > 12 {
		t.Fatalf("blackouts fired %d times, want 1..12 (budget)", got)
	}

	// Exact settlement: replica failover serves settle under the replica's
	// own key; nothing double-credits, no honest peer is suspended.
	for i, p := range site.peers {
		if _, err := p.Flush(site.originSrv.URL); err != nil {
			t.Fatalf("flush peer %d: %v", i, err)
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
			t.Errorf("honest peer %s suspended", id)
		}
	}
	t.Logf("recovered after %d views; opens=%v skips=%v fallbacks=%v",
		v, metrics.Counter("hpop.breaker.opens"),
		metrics.Counter("nocdn.loader.circuit_skips"),
		metrics.Counter("nocdn.loader.fallbacks"))
}

// TestChaosBrownoutDegradesNotFails kills every peer AND the origin's
// content endpoint for one object: in brownout mode every page view still
// loads, the dead object is a degraded marker with no body bytes, nothing
// unverified is served, and once both candidates' breakers open, later
// views skip them without hitting the network (circuit_skips).
func TestChaosBrownoutDegradesNotFails(t *testing.T) { forChaosSeeds(t, chaosBrownoutDegradesNotFails) }

func chaosBrownoutDegradesNotFails(t *testing.T, seed uint64) {
	// Long cooldown: once open, breakers stay open for the whole test, so
	// the circuit-skip path is exercised deterministically.
	cfg := fastBreaker()
	cfg.Cooldown = time.Minute
	reg := hpop.NewHealthRegistry(cfg)
	site := newSelfHealSite(t, 2, nil)
	// Every peer fetch of d.png fails, and so does its origin fallback.
	sched := mustSchedule(t, seed, `
blackout match=/img/d.png
`)
	inj := faults.NewInjector(sched)
	metrics := hpop.NewMetrics()
	loader := &nocdn.Loader{
		OriginURL:    site.originSrv.URL,
		HTTPClient:   &http.Client{Transport: inj.Transport(nil)},
		Concurrency:  6,
		FetchTimeout: time.Second,
		Retry:        fastRetry(2),
		Metrics:      metrics,
		Health:       reg,
		Brownout:     true,
	}
	const views = 3
	for v := 1; v <= views; v++ {
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Fatalf("view %d: brownout load must not fail the page: %v", v, err)
		}
		if len(res.Degraded) != 1 || res.Degraded[0] != "/img/d.png" {
			t.Fatalf("view %d: degraded = %v, want [/img/d.png]", v, res.Degraded)
		}
		if _, ok := res.Body["/img/d.png"]; ok {
			t.Fatalf("view %d: degraded object must have no body entry", v)
		}
		for path, want := range site.content {
			if path == "/img/d.png" {
				continue
			}
			if !bytes.Equal(res.Body[path], want) {
				t.Fatalf("view %d: unverified bytes for %s", v, path)
			}
		}
	}
	if got := metrics.Counter("nocdn.loader.brownouts"); got != views {
		t.Fatalf("brownouts = %v, want %d", got, views)
	}
	if metrics.Counter("nocdn.loader.circuit_skips") == 0 {
		t.Fatal("no circuit skips: open breakers did not gate repeat views")
	}
}
