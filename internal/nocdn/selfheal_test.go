package nocdn

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// testBreaker is a breaker config tuned for unit tests: tiny window, tens of
// milliseconds of cooldown.
func testBreaker() hpop.BreakerConfig {
	return hpop.BreakerConfig{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       2,
		Cooldown:         20 * time.Millisecond,
		ProbeBudget:      1,
		ReadmitAfter:     2,
	}
}

// TestPeerOverloadSheds503 saturates a peer past its inflight cap: the
// excess requests must be shed immediately with 503 + Retry-After while the
// admitted ones complete, and the shed count must show up in metrics and in
// the peer's /health self-report.
func TestPeerOverloadSheds503(t *testing.T) {
	gate := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate // hold admitted requests inflight until released
		w.Write([]byte("payload"))
	}))
	defer origin.Close()

	p := NewPeer("p1", 0)
	p.SignUp("prov", origin.URL)
	p.SetMaxInflight(2)
	metrics := hpop.NewMetrics()
	p.SetMetrics(metrics)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const n = 6
	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/proxy/prov/obj" + string(rune('a'+i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	// Wait until the cap is full and every excess request has been shed,
	// then let the admitted ones finish.
	deadline := time.Now().Add(5 * time.Second)
	for p.ShedRequests() < n-2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests shed, want %d", p.ShedRequests(), n-2)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	var ok, shed int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter != "1" {
				t.Errorf("shed response Retry-After = %q, want \"1\"", r.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok != 2 || shed != n-2 {
		t.Fatalf("ok=%d shed=%d, want 2 and %d", ok, shed, n-2)
	}
	if got := metrics.Counter("nocdn.peer.shed"); got != float64(n-2) {
		t.Errorf("nocdn.peer.shed = %v, want %d", got, n-2)
	}

	// The /health self-report carries the shed count and the (now idle)
	// saturation, which is what origin probes act on.
	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep PeerHealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.PeerID != "p1" || rep.MaxInflight != 2 || rep.Shed != int64(n-2) {
		t.Errorf("health report %+v, want peer p1, maxInflight 2, shed %d", rep, n-2)
	}
	if rep.Saturation != 0 {
		t.Errorf("idle saturation = %v, want 0", rep.Saturation)
	}
}

// TestOriginProbeEjectsAndReadmits walks the server side of the healing
// loop: probe failures open a peer's breaker and eject it from new wrapper
// maps; a shedding peer (saturation >= 1) stays ejected even though its
// endpoint answers 200; recovery takes the full half-open probe cycle
// (hysteresis), after which the peer is readmitted to wrappers.
func TestOriginProbeEjectsAndReadmits(t *testing.T) {
	const (
		modeHealthy = iota
		modeDown
		modeShedding
	)
	var mode atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case modeDown:
			http.Error(w, "dead", http.StatusInternalServerError)
		case modeShedding:
			json.NewEncoder(w).Encode(PeerHealthReport{PeerID: "bad", Saturation: 2})
		default:
			json.NewEncoder(w).Encode(PeerHealthReport{PeerID: "bad"})
		}
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(PeerHealthReport{PeerID: "good"})
	}))
	defer good.Close()

	reg := hpop.NewHealthRegistry(testBreaker())
	metrics := hpop.NewMetrics()
	o := NewOrigin("example.com", WithRNG(sim.NewRNG(7)), WithHealthRegistry(reg))
	o.SetMetrics(metrics)
	o.AddObject("/index.html", []byte("<html>page</html>"))
	for _, s := range []string{"a", "b", "c"} {
		o.AddObject("/"+s+".png", []byte(s))
	}
	if err := o.AddPage(Page{
		Name:      "home",
		Container: "/index.html",
		Embedded:  []string{"/a.png", "/b.png", "/c.png"},
	}); err != nil {
		t.Fatal(err)
	}
	o.RegisterPeer("good", good.URL, 10)
	o.RegisterPeer("bad", bad.URL, 10)

	wrapperPeers := func() map[string]bool {
		t.Helper()
		w, err := o.AssignWrapper("home", "c")
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{w.Container.PeerID: true}
		for _, obj := range w.Objects {
			ids[obj.PeerID] = true
		}
		return ids
	}

	ctx := context.Background()
	// Healthy baseline: both peers get assignments (4 objects, 2 peers).
	if ids := wrapperPeers(); !ids["good"] || !ids["bad"] {
		t.Fatalf("baseline wrapper peers = %v, want both", ids)
	}

	// Two failed probes open the breaker: ejected from new maps.
	mode.Store(modeDown)
	o.ProbeSample(ctx, 0)
	o.ProbeSample(ctx, 0)
	if reg.Healthy("bad") {
		t.Fatalf("bad still healthy after 2 failed probes (state %v)", reg.State("bad"))
	}
	if got := metrics.Counter("nocdn.origin.peer_ejections"); got != 1 {
		t.Fatalf("peer_ejections = %v, want 1", got)
	}
	if ids := wrapperPeers(); ids["bad"] {
		t.Fatal("ejected peer still assigned in a fresh wrapper")
	}

	// A shedding peer answers 200 but reports saturation >= 1: the half-open
	// probe fails and the peer stays out.
	mode.Store(modeShedding)
	time.Sleep(25 * time.Millisecond) // let the cooldown arm a probe
	o.ProbeSample(ctx, 0)
	if reg.Healthy("bad") {
		t.Fatal("shedding peer must not be readmitted")
	}
	if ids := wrapperPeers(); ids["bad"] {
		t.Fatal("shedding peer assigned in a fresh wrapper")
	}

	// Recovery: readmission takes ReadmitAfter consecutive probe successes.
	mode.Store(modeHealthy)
	time.Sleep(25 * time.Millisecond)
	o.ProbeSample(ctx, 0)
	if reg.Healthy("bad") {
		t.Fatal("one good probe must not readmit (hysteresis)")
	}
	o.ProbeSample(ctx, 0)
	if !reg.Healthy("bad") {
		t.Fatalf("bad not readmitted after probe cycle (state %v)", reg.State("bad"))
	}
	if got := metrics.Counter("nocdn.origin.peer_readmissions"); got != 1 {
		t.Fatalf("peer_readmissions = %v, want 1", got)
	}
	if ids := wrapperPeers(); !ids["good"] || !ids["bad"] {
		t.Fatalf("post-recovery wrapper peers = %v, want both", ids)
	}
}

// TestHealthProbeOutcomes reads each /health answer through both of its
// consumers: the origin's ProbeSample (the registry's verdict) and a peer's
// GossipOnce (the observation it uploads). Shedding fails the probe, an
// unparsable 200 passes it, and the uploaded observation carries the
// verdict alone — no saturation, no latency.
func TestHealthProbeOutcomes(t *testing.T) {
	report := func(body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(body)) }
	}
	cases := []struct {
		name       string
		health     http.HandlerFunc // nil: connection refused
		ok         bool
		saturation float64
	}{
		{"saturation 0.3", report(`{"peerId":"target","saturation":0.3}`), true, 0.3},
		{"saturation 1.0", report(`{"peerId":"target","saturation":1.0}`), false, 1.0},
		{"garbage body", report(`<html>not a report</html>`), true, 0},
		{"503", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "draining", http.StatusServiceUnavailable)
		}, false, 0},
		{"connection refused", nil, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := httptest.NewServer(tc.health)
			defer target.Close()
			if tc.health == nil {
				target.Close()
			}

			reg := hpop.NewHealthRegistry(testBreaker())
			o := NewOrigin("example.com", WithRNG(sim.NewRNG(1)), WithHealthRegistry(reg))
			o.RegisterPeer("target", target.URL, 10)
			o.ProbeSample(context.Background(), 0)
			row := reg.Snapshot().Peers[0]
			if got := row.Successes == 1 && row.Failures == 0; got != tc.ok {
				t.Errorf("ProbeSample: successes %d failures %d, want ok=%v", row.Successes, row.Failures, tc.ok)
			}
			if tc.ok && row.Saturation != tc.saturation {
				t.Errorf("ProbeSample: registry saturation %v, want %v", row.Saturation, tc.saturation)
			}

			uploaded := make(chan []byte, 1)
			fakeOrigin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/neighbors":
					json.NewEncoder(w).Encode([]PeerInfo{{ID: "target", URL: target.URL}})
				case "/gossip":
					body, _ := io.ReadAll(r.Body)
					uploaded <- body
				}
			}))
			defer fakeOrigin.Close()
			if n, err := NewPeer("gossiper", 0).GossipOnce(context.Background(), fakeOrigin.URL); err != nil || n != 1 {
				t.Fatalf("GossipOnce = %d, %v", n, err)
			}
			body := <-uploaded
			var rep GossipReport
			var raw struct{ Observations []map[string]any }
			if err := json.Unmarshal(body, &rep); err != nil || json.Unmarshal(body, &raw) != nil {
				t.Fatalf("GossipOnce uploaded %s: %v", body, err)
			}
			if obs := rep.Observations[0]; obs.PeerID != "target" || obs.Healthy != tc.ok {
				t.Errorf("GossipOnce observation %+v, want healthy=%v", obs, tc.ok)
			}
			if len(raw.Observations[0]) != 2 {
				t.Errorf("GossipOnce observation %s carries more than peerId and healthy", body)
			}
		})
	}
}
