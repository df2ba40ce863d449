package hpop

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testBreakerConfig(clk *fakeClock) BreakerConfig {
	return BreakerConfig{
		Window:           4,
		FailureThreshold: 0.5,
		MinSamples:       2,
		Cooldown:         time.Second,
		ProbeBudget:      1,
		ReadmitAfter:     2,
		Now:              clk.now,
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(testBreakerConfig(clk))

	if got := b.State(); got != BreakerClosed {
		t.Fatalf("new breaker state = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}

	// Two failures out of two samples crosses 0.5 with MinSamples 2: open.
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker must refuse before cooldown")
	}

	// Cooldown elapses: the next Allow half-opens and grants one probe;
	// the probe budget refuses a second concurrent attempt.
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker must grant a probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown Allow = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("probe budget 1 must refuse a second concurrent probe")
	}

	// A failed probe re-opens immediately.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}

	// Recover: two consecutive successful probes (ReadmitAfter) close it.
	clk.advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("probe %d refused", i)
		}
		b.Record(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probes = %v, want closed", got)
	}
	// The window resets on close: one stray failure must not trip it.
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("one failure after close reopened the breaker: %v", got)
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := testBreakerConfig(clk)
	cfg.MinSamples = 4   // so the early failure can't trip a tiny sample
	b := NewBreaker(cfg) // window 4, threshold 0.5

	// One early failure, then enough successes to slide it out: the window
	// must forget old outcomes rather than accumulate forever.
	b.Record(false)
	b.Record(true)
	b.Record(true)
	b.Record(true)
	b.Record(true) // wraps; evicts the slot-0 failure
	rate, samples := b.FailureRate()
	if rate != 0 || samples != 4 {
		t.Fatalf("rate = %v over %d samples, want 0 over 4", rate, samples)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must allow")
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %v", got)
	}
}

// TestBreakerRace hammers one breaker from many goroutines under -race.
func TestBreakerRace(t *testing.T) {
	b := NewBreaker(BreakerConfig{Cooldown: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					b.Record(i%3 != 0)
				}
				b.State()
				b.FailureRate()
			}
		}(g)
	}
	wg.Wait()
}

func TestHealthRegistryGatingAndRank(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := testBreakerConfig(clk)
	m := NewMetrics()
	r := NewHealthRegistry(cfg)
	r.SetMetrics(m)
	r.Register("a")
	r.Register("b")

	// Registration alone exports a closed-state gauge for every peer.
	snap := m.Snapshot()
	for _, id := range []string{"a", "b"} {
		if v, ok := snap["hpop.breaker.state."+id]; !ok || v != 0 {
			t.Fatalf("gauge for %s = %v (present %v), want 0", id, v, ok)
		}
	}

	// Fail peer a until its breaker opens; b stays healthy.
	r.RecordFailure("a")
	r.RecordFailure("a")
	if r.State("a") != BreakerOpen {
		t.Fatalf("a state = %v, want open", r.State("a"))
	}
	if r.Allow("a") {
		t.Fatal("open peer must be refused")
	}
	if !r.Allow("b") {
		t.Fatal("healthy peer must be allowed")
	}
	if r.Healthy("a") || !r.Healthy("b") {
		t.Fatalf("healthy: a=%v b=%v", r.Healthy("a"), r.Healthy("b"))
	}
	if v := m.Snapshot()["hpop.breaker.state.a"]; v != 2 {
		t.Fatalf("open gauge = %v, want 2", v)
	}

	// Rank puts the open peer last, preserving order among equals.
	if got := r.Rank([]string{"a", "b", "c"}); got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Fatalf("rank = %v, want [b c a]", got)
	}

	// Half-open probe cycle re-admits a.
	clk.advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if !r.Allow("a") {
			t.Fatalf("probe %d refused", i)
		}
		r.RecordSuccess("a", 0.01)
	}
	if !r.Healthy("a") {
		t.Fatal("a must be healthy after probe successes")
	}
	if v := m.Snapshot()["hpop.breaker.state.a"]; v != 0 {
		t.Fatalf("closed gauge = %v, want 0", v)
	}
	if v := m.Snapshot()["hpop.breaker.opens"]; v != 1 {
		t.Fatalf("opens counter = %v, want 1", v)
	}
}

func TestHealthRegistrySnapshotAndHandler(t *testing.T) {
	r := NewHealthRegistry(BreakerConfig{})
	r.RecordSuccess("p1", 0.002)
	r.RecordFailure("p1")
	r.RecordFallback("p1")
	r.ReportSaturation("p1", 0.5)

	snap := r.Snapshot()
	if len(snap.Peers) != 1 {
		t.Fatalf("snapshot peers = %d, want 1", len(snap.Peers))
	}
	p := snap.Peers[0]
	if p.ID != "p1" || p.Successes != 1 || p.Failures != 1 || p.Fallbacks != 1 {
		t.Fatalf("snapshot row = %+v", p)
	}
	if p.Saturation != 0.5 {
		t.Fatalf("saturation = %v", p.Saturation)
	}
	if p.Samples != 3 { // success + failure + fallback all enter the window
		t.Fatalf("samples = %d, want 3", p.Samples)
	}

	rec := httptest.NewRecorder()
	r.Handler()(rec, httptest.NewRequest("GET", "/debug/health", nil))
	var got HealthSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("handler JSON: %v", err)
	}
	if len(got.Peers) != 1 || got.Peers[0].ID != "p1" {
		t.Fatalf("handler snapshot = %+v", got)
	}

	// Nil registry: empty but valid JSON.
	var nilReg *HealthRegistry
	rec = httptest.NewRecorder()
	nilReg.Handler()(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("nil handler JSON: %v", err)
	}
	if len(got.Peers) != 0 {
		t.Fatalf("nil handler peers = %+v", got.Peers)
	}
	// And the rest of the nil-safe surface.
	if !nilReg.Allow("x") || !nilReg.Healthy("x") || nilReg.State("x") != BreakerClosed {
		t.Fatal("nil registry must treat every peer as healthy")
	}
	nilReg.RecordSuccess("x", 0)
	nilReg.RecordFailure("x")
	if got := nilReg.Rank([]string{"b", "a"}); got[0] != "b" {
		t.Fatalf("nil Rank reordered: %v", got)
	}
}

// TestHealthRegistryRace hammers the registry concurrently under -race.
func TestHealthRegistryRace(t *testing.T) {
	r := NewHealthRegistry(BreakerConfig{Cooldown: time.Microsecond})
	r.SetMetrics(NewMetrics())
	ids := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ids[(g+i)%len(ids)]
				if r.Allow(id) {
					if i%4 == 0 {
						r.RecordFailure(id)
					} else {
						r.RecordSuccess(id, 0.001)
					}
				}
				r.Rank(ids)
				r.Snapshot()
				r.ReportSaturation(id, float64(i%10)/10)
			}
		}(g)
	}
	wg.Wait()
}

func TestBreakerProbeDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(testBreakerConfig(clk))

	if b.ProbeDue() {
		t.Fatal("closed breaker must not be probe-due")
	}
	b.Record(false)
	b.Record(false) // open
	if b.ProbeDue() {
		t.Fatal("open breaker within cooldown must not be probe-due")
	}
	clk.advance(2 * time.Second)
	if !b.ProbeDue() {
		t.Fatal("open breaker past cooldown must be probe-due")
	}
	// ProbeDue is read-only: the state must still be open, and the next
	// Allow must be the call that half-opens.
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("ProbeDue changed state to %v", got)
	}
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// The granted probe consumed the budget: not due again until recorded.
	if b.ProbeDue() {
		t.Fatal("half-open with exhausted budget must not be probe-due")
	}
	b.Record(true)
	if !b.ProbeDue() {
		t.Fatal("half-open with free budget must be probe-due")
	}
	var nilB *Breaker
	if nilB.ProbeDue() {
		t.Fatal("nil breaker must not be probe-due")
	}
}

func TestHealthRegistryProbeDuePromotesInRank(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg := testBreakerConfig(clk)
	r := NewHealthRegistry(cfg)

	r.RecordSuccess("steady", 0.01)
	r.RecordFailure("flaky")
	r.RecordFailure("flaky") // open
	if got := r.Rank([]string{"flaky", "steady"}); got[0] != "steady" {
		t.Fatalf("open-within-cooldown peer ranked first: %v", got)
	}
	if r.ProbeDue("flaky") {
		t.Fatal("flaky probe-due before cooldown")
	}
	clk.advance(2 * time.Second)
	if !r.ProbeDue("flaky") {
		t.Fatal("flaky not probe-due after cooldown")
	}
	// The probe-due peer is promoted so real traffic canaries it.
	if got := r.Rank([]string{"steady", "flaky"}); got[0] != "flaky" {
		t.Fatalf("probe-due peer not promoted: %v", got)
	}
}
