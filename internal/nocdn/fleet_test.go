package nocdn

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hpop/internal/hpop"
)

// fleetClock is a mutex-guarded fake clock.
type fleetClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFleetClock() *fleetClock {
	return &fleetClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fleetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fleetClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// makeReport builds a synthetic telemetry report.
func makeReport(source string, seq uint64, hits, errs float64, serveSamples []float64) *hpop.TelemetryReport {
	m := hpop.NewMetrics()
	m.Add("nocdn.peer.hits", hits)
	m.Add("nocdn.peer.proxy_errors", errs)
	m.Add("nocdn.peer.misses", errs) // failed serves count as misses too
	for _, v := range serveSamples {
		m.Observe("nocdn.peer.serve_seconds", v)
	}
	r := hpop.NewTelemetryReporter(source, m, 8)
	rep := r.NextReport()
	rep.Seq = seq
	return rep
}

// TestFleetIngestIdempotent: duplicate and stale sequences are
// acknowledged but never re-applied to the rollups.
func TestFleetIngestIdempotent(t *testing.T) {
	clock := newFleetClock()
	a := NewFleetAggregator(clock.Now)
	m := hpop.NewMetrics()
	a.SetMetrics(m)

	rep := makeReport("peer-1", 1, 10, 0, []float64{0.01})
	applied, err := a.Ingest(rep)
	if err != nil || !applied {
		t.Fatalf("first ingest: applied=%v err=%v", applied, err)
	}
	if got := m.Counter("fleet.nocdn.peer.hits"); got != 10 {
		t.Fatalf("rollup hits = %v, want 10", got)
	}

	// Exact duplicate (a retry the peer never saw the ack for).
	applied, err = a.Ingest(rep)
	if err != nil || applied {
		t.Fatalf("duplicate ingest: applied=%v err=%v", applied, err)
	}
	if got := m.Counter("fleet.nocdn.peer.hits"); got != 10 {
		t.Fatalf("duplicate double-counted: rollup hits = %v", got)
	}

	// A newer sequence applies; an older one after it does not.
	if applied, _ = a.Ingest(makeReport("peer-1", 3, 5, 0, nil)); !applied {
		t.Fatal("seq 3 refused")
	}
	if applied, _ = a.Ingest(makeReport("peer-1", 2, 100, 0, nil)); applied {
		t.Fatal("stale seq 2 applied after seq 3")
	}
	if got := m.Counter("fleet.nocdn.peer.hits"); got != 15 {
		t.Fatalf("rollup hits = %v, want 15", got)
	}

	// Malformed reports are rejected loudly.
	if _, err := a.Ingest(&hpop.TelemetryReport{Source: "", Seq: 1}); err == nil {
		t.Fatal("sourceless report accepted")
	}
	if _, err := a.Ingest(&hpop.TelemetryReport{Source: "x", Seq: 0}); err == nil {
		t.Fatal("seq-0 report accepted")
	}

	// The batch ack covers applied and duplicate reports alike.
	ack, err := a.IngestBatch(TelemetryBatch{Reports: []*hpop.TelemetryReport{
		makeReport("peer-2", 1, 1, 0, nil),
		makeReport("peer-2", 1, 1, 0, nil),
	}})
	if err != nil || ack.Accepted != 1 || ack.Duplicates != 1 || ack.Acks["peer-2"] != 1 {
		t.Fatalf("batch ack = %+v err=%v", ack, err)
	}
}

// TestFleetSnapshotWorstPeersAndStaleness: the worst-peer rankings pick the
// right sources, hot keys aggregate across reports, and sources go stale on
// the fake clock.
func TestFleetSnapshotWorstPeersAndStaleness(t *testing.T) {
	clock := newFleetClock()
	a := NewFleetAggregator(clock.Now)
	m := hpop.NewMetrics()
	a.SetMetrics(m)

	// peer-bad: 50% errors. peer-slow: clean but slow. peer-ok: clean, fast.
	bad := makeReport("peer-bad", 1, 10, 10, []float64{0.01, 0.01})
	bad.HotKeys = map[string]uint64{"example.com/hot.html": 30}
	slow := makeReport("peer-slow", 1, 20, 0, []float64{2, 2, 2})
	slow.HotKeys = map[string]uint64{"example.com/hot.html": 5, "example.com/cold.css": 1}
	ok := makeReport("peer-ok", 1, 100, 0, []float64{0.002, 0.003})
	for _, rep := range []*hpop.TelemetryReport{bad, slow, ok} {
		if applied, err := a.Ingest(rep); !applied || err != nil {
			t.Fatalf("ingest %s: %v", rep.Source, err)
		}
	}

	snap := a.Snapshot(5)
	if snap.Sources != 3 || snap.ActiveSources != 3 {
		t.Fatalf("sources = %d/%d active, want 3/3", snap.Sources, snap.ActiveSources)
	}
	if len(snap.WorstPeers.ByErrorRate) != 1 || snap.WorstPeers.ByErrorRate[0].Peer != "peer-bad" {
		t.Fatalf("byErrorRate = %+v", snap.WorstPeers.ByErrorRate)
	}
	if got := snap.WorstPeers.ByErrorRate[0].ErrorRate; got != 0.5 {
		t.Fatalf("peer-bad error rate = %v, want 0.5", got)
	}
	if len(snap.WorstPeers.ByServeP99) == 0 || snap.WorstPeers.ByServeP99[0].Peer != "peer-slow" {
		t.Fatalf("byServeP99 = %+v", snap.WorstPeers.ByServeP99)
	}
	if len(snap.HotKeys) == 0 || snap.HotKeys[0].Key != "example.com/hot.html" || snap.HotKeys[0].Count != 35 {
		t.Fatalf("hot keys = %+v", snap.HotKeys)
	}
	if snap.ServeP99MS <= 0 {
		t.Fatalf("fleet serve p99 = %v", snap.ServeP99MS)
	}
	if snap.Counters["fleet.nocdn.peer.hits"] != 130 {
		t.Fatalf("rollup counters = %+v", snap.Counters)
	}

	// Two sources keep reporting; peer-ok goes dark past the window.
	clock.Advance(DefaultFleetStaleAfter + time.Second)
	for _, rep := range []*hpop.TelemetryReport{
		makeReport("peer-bad", 2, 1, 0, nil),
		makeReport("peer-slow", 2, 1, 0, nil),
	} {
		a.Ingest(rep)
	}
	snap = a.Snapshot(5)
	if snap.Sources != 3 || snap.ActiveSources != 2 {
		t.Fatalf("after staleness: %d/%d active, want 3/2", snap.Sources, snap.ActiveSources)
	}
	if m.Gauge("fleet.telemetry.active_sources") != 2 {
		t.Fatalf("active_sources gauge = %v", m.Gauge("fleet.telemetry.active_sources"))
	}
}

// TestFleetSnapshotCache: /debug/fleet reuses a cached snapshot between
// state changes, but never serves a view that omits an applied report.
func TestFleetSnapshotCache(t *testing.T) {
	clock := newFleetClock()
	a := NewFleetAggregator(clock.Now)
	a.SetMetrics(hpop.NewMetrics())

	a.Ingest(makeReport("peer-1", 1, 10, 0, nil))
	snap := a.CachedSnapshot(5)
	if snap.Reports != 1 {
		t.Fatalf("first snapshot = %+v", snap)
	}

	// A new report invalidates the cache immediately, same clock tick.
	a.Ingest(makeReport("peer-1", 2, 5, 0, nil))
	if snap = a.CachedSnapshot(5); snap.Reports != 2 || snap.Counters["fleet.nocdn.peer.hits"] != 15 {
		t.Fatalf("cache served a stale view after ingest: %+v", snap)
	}

	// No new reports: the cached view is reused verbatim within the TTL...
	before := snap.Now
	clock.Advance(fleetSnapshotTTL / 2)
	if snap = a.CachedSnapshot(5); !snap.Now.Equal(before) {
		t.Fatalf("cache rebuilt inside TTL with no new reports")
	}
	// ...and rebuilt once it ages out (staleness windows keep moving).
	clock.Advance(fleetSnapshotTTL)
	if snap = a.CachedSnapshot(5); snap.Now.Equal(before) {
		t.Fatalf("cache never expired")
	}
	// A different k is a different view: never cross-served.
	if snap = a.CachedSnapshot(3); snap.Reports != 2 {
		t.Fatalf("k=3 snapshot = %+v", snap)
	}
}

// TestFleetTelemetryEndToEnd: a real peer serves traffic, ships telemetry
// over HTTP to a real origin, and the origin's /debug/fleet and /debug/slo
// reflect it. Also exercises dark-origin degradation: the report stays
// pending and the retry converges without double counting.
func TestFleetTelemetryEndToEnd(t *testing.T) {
	clock := newFleetClock()
	origin := NewOrigin("example.com", WithClock(clock.Now))
	om := hpop.NewMetrics()
	origin.SetMetrics(om)
	origin.AddObject("/index.html", []byte("<html>fleet</html>"))
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	peer := NewPeer("home-1", 1<<20)
	pm := hpop.NewMetrics()
	peer.SetMetrics(pm)
	peer.SetClock(clock.Now)
	peer.SignUp("example.com", originSrv.URL)
	peer.EnableTelemetry(0)
	peerSrv := httptest.NewServer(peer.Handler())
	defer peerSrv.Close()

	// Serve real traffic through the proxy: one miss, then hits.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(peerSrv.URL + "/proxy/example.com/index.html")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxy status %d", resp.StatusCode)
		}
	}

	// Dark origin first: the cycle fails silently, the report stays pending.
	if sent, err := peer.TelemetryOnce(context.Background(), "http://127.0.0.1:1"); sent || err == nil {
		t.Fatalf("dark origin: sent=%v err=%v", sent, err)
	}
	if !peer.TelemetryReporter().Pending() {
		t.Fatal("report not pending after failed ship")
	}

	// Live origin: the same pending report ships and acks.
	sent, err := peer.TelemetryOnce(context.Background(), originSrv.URL)
	if err != nil || !sent {
		t.Fatalf("ship: sent=%v err=%v", sent, err)
	}
	if peer.TelemetryReporter().Pending() {
		t.Fatal("report still pending after ack")
	}

	snap := origin.Fleet().Snapshot(5)
	if snap.Sources != 1 || snap.Reports != 1 {
		t.Fatalf("fleet snapshot = %+v", snap)
	}
	if snap.Counters["fleet.nocdn.peer.hits"] != 4 || snap.Counters["fleet.nocdn.peer.misses"] != 1 {
		t.Fatalf("fleet rollups = %+v", snap.Counters)
	}
	if snap.ServeP99MS <= 0 {
		t.Fatal("fleet serve p99 empty")
	}
	if len(snap.HotKeys) != 1 || snap.HotKeys[0].Key != "example.com/index.html" || snap.HotKeys[0].Count != 5 {
		t.Fatalf("hot keys = %+v", snap.HotKeys)
	}

	// The SLO engine saw 5 good availability events and 5 latency events.
	var avail hpop.SLOStatus
	for _, s := range origin.SLOEngine().Snapshot().SLOs {
		if s.Name == SLOFleetAvailability {
			avail = s
		}
	}
	if avail.TotalGood != 5 || avail.TotalBad != 0 {
		t.Fatalf("availability events = %v/%v, want 5/0", avail.TotalGood, avail.TotalBad)
	}

	// /debug/fleet and /debug/slo answer over HTTP.
	for _, path := range []string{"/debug/fleet", "/debug/slo"} {
		resp, err := http.Get(originSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var decoded map[string]any
		err = json.NewDecoder(resp.Body).Decode(&decoded)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	// Nothing new happened: the next cycle is a silent no-op.
	if sent, err := peer.TelemetryOnce(context.Background(), originSrv.URL); sent || err != nil {
		t.Fatalf("idle cycle: sent=%v err=%v", sent, err)
	}

	// The background loop lifecycle survives start/stop/restart.
	peer.startTelemetry(originSrv.URL, 50*time.Millisecond)
	peer.startTelemetry(originSrv.URL, 50*time.Millisecond)
	peer.Close()
	peer.Close()
}
