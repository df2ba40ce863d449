package nocdn

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// countProbes routes o's direct probes through a counting transport.
func countProbes(o *Origin) *countingTransport {
	ct := &countingTransport{next: http.DefaultTransport, seen: map[string]int{}}
	o.probeClient.Transport = ct
	return ct
}

// total returns how many requests the transport has carried.
func (c *countingTransport) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.seen {
		n += k
	}
	return n
}

// fakeFleet is one server answering every peer's GET /PEER/health: 200
// with saturation 0, or 503 for a peer marked down.
type fakeFleet struct {
	*httptest.Server
	down sync.Map
}

func newFakeFleet(t *testing.T) *fakeFleet {
	t.Helper()
	f := &fakeFleet{}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/"), "/health")
		if _, down := f.down.Load(id); down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, `{"peerId":%q,"saturation":0}`, id)
	}))
	t.Cleanup(f.Close)
	return f
}

// fleetOrigin registers n peers, peer-0 … peer-(n-1), each answering
// through fleet, behind one page whose 256 KiB container is chunked across
// all n of them: every map names every peer the origin finds servable.
func fleetOrigin(t *testing.T, fleet *fakeFleet, n int, h *hpop.HealthRegistry) *Origin {
	t.Helper()
	o := NewOrigin("x", WithRNG(sim.NewRNG(1)), WithHealthRegistry(h), WithChunking(n, 256<<10))
	o.AddObject("/c", make([]byte, 256<<10))
	if err := o.AddPage(Page{Name: "p", Container: "/c"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("peer-%d", i)
		if err := o.RegisterPeer(id, fleet.URL+"/"+id, 10); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// mapsNaming counts how many of 64 clients' wrapper maps name peerID.
func mapsNaming(t *testing.T, o *Origin, peerID string) int {
	t.Helper()
	n := 0
	for c := 0; c < 64; c++ {
		w, err := o.AssignWrapper("p", fmt.Sprintf("client-%02d", c))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.Keys[peerID]; ok {
			n++
		}
	}
	return n
}

// postGossip posts one report to the origin's /gossip and returns the
// answer body.
func postGossip(t *testing.T, o *Origin, rep GossipReport) string {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gossip", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /gossip = %d %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// nominations returns the peers waiting for the next probe pass.
func nominations(o *Origin) []string {
	o.probeMu.Lock()
	defer o.probeMu.Unlock()
	return append([]string(nil), o.nominated...)
}

// healthRow returns one peer's row of the registry snapshot.
func healthRow(h *hpop.HealthRegistry, id string) hpop.PeerHealth {
	for _, row := range h.Snapshot().Peers {
		if row.ID == id {
			return row
		}
	}
	return hpop.PeerHealth{}
}

// TestGossipCannotEject: anonymous gossip moves no breaker. Four reports,
// each under a made-up From and each observing all 20 peers — 19 of them
// truly, and peer-2, which is healthy, as dead — nominate peer-2 once, send
// no request anywhere, and after an epoch tick peer-2 is still in every
// map. The probe pass the nomination triggers checks peer-2 first and finds
// it healthy.
func TestGossipCannotEject(t *testing.T) {
	fleet := newFakeFleet(t)
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{})
	o := fleetOrigin(t, fleet, 20, h)
	probes := countProbes(o)
	if got := mapsNaming(t, o, "peer-2"); got != 64 {
		t.Fatalf("before the reports peer-2 is in %d of 64 maps, want 64", got)
	}

	for r := 0; r < 4; r++ {
		rep := GossipReport{From: fmt.Sprintf("made-up-%d", r)}
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("peer-%d", i)
			rep.Observations = append(rep.Observations, PeerObservation{PeerID: id, Healthy: id != "peer-2"})
		}
		want := `{"nominated":0}`
		if r == 0 {
			want = `{"nominated":1}`
		}
		if got := postGossip(t, o, rep); got != want {
			t.Fatalf("report %d answered %s, want %s", r, got, want)
		}
	}
	if n := probes.total(); n != 0 {
		t.Fatalf("taking the reports sent %d probes, want 0", n)
	}
	if got := h.State("peer-2"); got != hpop.BreakerClosed {
		t.Fatalf("peer-2's breaker is %v after the reports, want closed", got)
	}
	if got := nominations(o); len(got) != 1 || got[0] != "peer-2" {
		t.Fatalf("nominations = %v, want [peer-2]", got)
	}
	o.EpochTick()
	if got := mapsNaming(t, o, "peer-2"); got != 64 {
		t.Fatalf("after the reports and a tick peer-2 is in %d of 64 maps, want 64", got)
	}

	o.ProbeSample(context.Background(), 1)
	if n := probes.total(); n != 1 {
		t.Fatalf("a k=1 pass sent %d probes, want 1", n)
	}
	if row := healthRow(h, "peer-2"); row.Successes != 1 || row.Failures != 0 {
		t.Fatalf("the pass did not probe the nominated peer first: %+v", row)
	}
	if len(nominations(o)) != 0 {
		t.Fatal("the pass left its nomination in place")
	}
	if got := mapsNaming(t, o, "peer-2"); got != 64 {
		t.Fatalf("after the probe pass peer-2 is in %d of 64 maps, want 64", got)
	}
}

// TestNominatedProbeEjectsInMinSamplesPasses is what gossip costs in
// ejection time now that it only nominates. With one probe per pass over
// 64 peers, and a neighbor re-reporting a dead peer before every pass, the
// peer's breaker opens after exactly MinSamples passes — as many as a full
// scan of the fleet takes.
func TestNominatedProbeEjectsInMinSamplesPasses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		gossip bool
	}{
		{"k=1 with gossip", 1, true},
		{"k=0 full scan", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := newFakeFleet(t)
			h := hpop.NewHealthRegistry(hpop.BreakerConfig{})
			o := fleetOrigin(t, fleet, 64, h)
			fleet.down.Store("peer-40", true)
			report := GossipReport{From: "peer-39", Observations: []PeerObservation{{PeerID: "peer-40"}}}
			passes := 0
			for h.Healthy("peer-40") {
				if passes == 10*hpop.DefaultBreakerMinSamples {
					t.Fatalf("peer-40 still healthy after %d passes", passes)
				}
				if tc.gossip {
					postGossip(t, o, report)
				}
				o.ProbeSample(context.Background(), tc.k)
				passes++
			}
			if passes != hpop.DefaultBreakerMinSamples {
				t.Fatalf("peer-40 ejected after %d passes, want MinSamples = %d", passes, hpop.DefaultBreakerMinSamples)
			}
			if got := mapsNaming(t, o, "peer-40"); got != 0 {
				t.Fatalf("ejected peer-40 is in %d of 64 maps", got)
			}
		})
	}
}

// TestGossipNominationsConcurrent: reports and probe passes share the
// nomination list. Eight reporters and a prober run at once; the list never
// names a peer twice or outnumbers the fleet, and a last pass drains it.
func TestGossipNominationsConcurrent(t *testing.T) {
	fleet := newFakeFleet(t)
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{})
	o := fleetOrigin(t, fleet, 8, h)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o.ReportGossip(GossipReport{From: fmt.Sprintf("r-%d", r), Observations: []PeerObservation{
					{PeerID: fmt.Sprintf("peer-%d", (r+i)%8)}, {PeerID: fmt.Sprintf("peer-%d", i%8)},
				}})
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			o.ProbeSample(context.Background(), 2)
		}
	}()
	wg.Wait()
	<-done
	got := nominations(o)
	seen := make(map[string]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("nominations %v name %s twice", got, id)
		}
		seen[id] = true
	}
	if len(got) > 8 {
		t.Fatalf("%d nominations over 8 peers", len(got))
	}
	o.ProbeSample(context.Background(), 0)
	if got := nominations(o); len(got) != 0 {
		t.Fatalf("a full pass left nominations %v", got)
	}
}
