package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// gatedHandler fronts a real peer handler with a kill switch: while down,
// every request (proxy and health alike) fails with 502 — the whole
// appliance is unreachable, which is how a home peer actually fails.
type gatedHandler struct {
	down  atomic.Bool
	inner http.Handler
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, "peer offline", http.StatusBadGateway)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// selfHealBreaker is a test-scale breaker config shared by both sides of
// the loop.
func selfHealBreaker() hpop.BreakerConfig {
	return hpop.BreakerConfig{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       2,
		Cooldown:         50 * time.Millisecond,
		ProbeBudget:      1,
		ReadmitAfter:     2,
	}
}

// TestSelfHealingClosedLoop is the acceptance test for the availability
// layer: one peer of two goes dark and comes back, and BOTH halves of the
// healing loop must react and recover on their own.
//
// Client half: the loader's breaker opens, replica failover keeps every
// page view loading verified bytes, and once the peer returns the
// probe-promotion canary re-admits it.
//
// Server half: origin health probes open its breaker, the peer is ejected
// from freshly generated wrapper maps (visible on /debug/health and
// /metrics), and the readmission transition restores it after the full
// half-open cycle.
//
// Throughout: settlement stays exact — every serving peer's flushed records
// credit precisely the verified bytes it served, nothing is rejected.
func TestSelfHealingClosedLoop(t *testing.T) {
	originMetrics := hpop.NewMetrics()
	originReg := hpop.NewHealthRegistry(selfHealBreaker())
	originReg.SetMetrics(originMetrics)

	origin := nocdn.NewOrigin("example.com",
		nocdn.WithRNG(sim.NewRNG(7)),
		nocdn.WithReplicas(1),
		nocdn.WithHealthRegistry(originReg))
	origin.SetMetrics(originMetrics)
	content := map[string][]byte{
		"/index.html": bytes.Repeat([]byte("<html>"), 500),
		"/img/a.png":  bytes.Repeat([]byte("a"), 9000),
		"/img/b.png":  bytes.Repeat([]byte("b"), 9000),
		"/img/c.png":  bytes.Repeat([]byte("c"), 9000),
	}
	for path, data := range content {
		origin.AddObject(path, data)
	}
	if err := origin.AddPage(nocdn.Page{
		Name:      "home",
		Container: "/index.html",
		Embedded:  []string{"/img/a.png", "/img/b.png", "/img/c.png"},
	}); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	// Two peers: with one replica per object, every object can survive
	// either one going dark. beta is the one that will fail.
	var peers []*nocdn.Peer
	var gates []*gatedHandler
	for _, id := range []string{"alpha", "beta"} {
		p := nocdn.NewPeer(id, 0)
		p.SignUp("example.com", originSrv.URL)
		g := &gatedHandler{inner: p.Handler()}
		srv := httptest.NewServer(g)
		defer srv.Close()
		origin.RegisterPeer(id, srv.URL, 10)
		peers = append(peers, p)
		gates = append(gates, g)
	}
	debug := httptest.NewServer(hpop.DebugMux("origin", originMetrics, nil, nil, originReg))
	defer debug.Close()

	clientMetrics := hpop.NewMetrics()
	clientReg := hpop.NewHealthRegistry(selfHealBreaker())
	clientReg.SetMetrics(clientMetrics)
	loader := &nocdn.Loader{
		OriginURL:    originSrv.URL,
		Concurrency:  4,
		FetchTimeout: 2 * time.Second,
		Retry:        faults.Policy{MaxAttempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: -1},
		Metrics:      clientMetrics,
		Health:       clientReg,
	}

	expectedCredit := make(map[string]int64)
	view := func(label string) {
		t.Helper()
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for path, want := range content {
			if !bytes.Equal(res.Body[path], want) {
				t.Fatalf("%s: unverified bytes for %s", label, path)
			}
		}
		for id, n := range res.PeerBytes {
			expectedCredit[id] += n
		}
	}

	// Phase 1 — healthy baseline.
	view("baseline")

	// Phase 2 — beta goes dark. Pages keep loading off alpha while the
	// loader's breaker on beta opens.
	gates[1].down.Store(true)
	for i := 0; i < 3; i++ {
		view("during outage")
	}
	if clientMetrics.Counter("hpop.breaker.opens") < 1 {
		t.Fatalf("loader breaker never opened (beta state %v)", clientReg.State("beta"))
	}

	// The origin's probe loop notices independently and ejects beta from
	// fresh wrapper maps.
	ctx := context.Background()
	origin.ProbeSample(ctx, 0)
	origin.ProbeSample(ctx, 0)
	if originReg.Healthy("beta") {
		t.Fatalf("origin still trusts beta after failed probes (state %v)", originReg.State("beta"))
	}
	w, err := origin.AssignWrapper("home", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range append([]nocdn.ObjectRef{w.Container}, w.Objects...) {
		if ref.PeerID == "beta" {
			t.Fatal("ejected peer still assigned in a fresh wrapper")
		}
		for _, rp := range ref.Replicas {
			if rp.PeerID == "beta" {
				t.Fatal("ejected peer still listed as replica")
			}
		}
	}

	// The outage is operator-visible: /debug/health reports the open
	// breaker and /metrics carries the breaker gauge and ejection counter.
	var snap hpop.HealthSnapshot
	resp, err := http.Get(debug.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	betaSeen := false
	for _, p := range snap.Peers {
		if p.ID == "beta" {
			betaSeen = true
			if p.State != "open" {
				t.Fatalf("/debug/health beta state %q, want open", p.State)
			}
		}
	}
	if !betaSeen {
		t.Fatal("beta missing from /debug/health")
	}
	mresp, err := http.Get(debug.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(bytes.Buffer)
	if _, err := mbody.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	pm := parseExposition(t, mbody.String())
	if pm.values["hpop.breaker.state.beta"] != 2 {
		t.Fatalf("exposition hpop.breaker.state.beta = %v, want 2 (open)", pm.values["hpop.breaker.state.beta"])
	}
	if pm.values["nocdn.origin.peer_ejections"] < 1 {
		t.Fatal("no peer ejection visible on /metrics")
	}

	// Phase 3 — beta returns. The origin's probe cycle re-admits it after
	// the full half-open hysteresis...
	gates[1].down.Store(false)
	readmitDeadline := time.Now().Add(10 * time.Second)
	for !originReg.Healthy("beta") {
		if time.Now().After(readmitDeadline) {
			t.Fatalf("origin never readmitted beta (state %v)", originReg.State("beta"))
		}
		time.Sleep(25 * time.Millisecond)
		origin.ProbeSample(ctx, 0)
	}
	if originMetrics.Counter("nocdn.origin.peer_readmissions") < 1 {
		t.Fatal("no readmission transition recorded")
	}

	// ...and the loader's probe-promotion canary independently re-admits it
	// on the client side.
	for !clientReg.Healthy("beta") {
		if time.Now().After(readmitDeadline) {
			t.Fatalf("loader never readmitted beta (state %v)", clientReg.State("beta"))
		}
		time.Sleep(25 * time.Millisecond)
		view("during recovery")
	}
	view("after recovery")

	// Exact settlement across the whole incident.
	for _, p := range peers {
		if _, err := p.Flush(originSrv.URL); err != nil {
			t.Fatalf("flush %s: %v", p.ID, err)
		}
	}
	for _, id := range []string{"alpha", "beta"} {
		acc := origin.AccountingFor(id)
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
}
