package hpop

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// HealthRegistry aggregates per-peer health: circuit-breaker state, recent
// latency quantiles, and reported saturation. It is the shared source of
// truth the self-healing loop acts on — the loader gates and re-ranks peer
// selection on it, the origin ejects unhealthy peers from new wrapper maps,
// and /debug/health serves its snapshot.
//
// Like Metrics and Tracer, every method is nil-receiver safe: a component
// without a registry behaves as if every peer were healthy.
type HealthRegistry struct {
	cfg BreakerConfig

	mu    sync.Mutex
	peers map[string]*peerHealth

	metrics *Metrics
}

// peerHealth is one peer's aggregated state.
type peerHealth struct {
	breaker    *Breaker
	latency    *Histogram
	saturation float64
	lastReport time.Time

	successes int64
	failures  int64
	fallbacks int64
}

// NewHealthRegistry creates a registry whose per-peer breakers use cfg (the
// zero value applies breaker defaults).
func NewHealthRegistry(cfg BreakerConfig) *HealthRegistry {
	return &HealthRegistry{cfg: cfg.withDefaults(), peers: make(map[string]*peerHealth)}
}

// SetMetrics wires a metrics registry: breaker transitions export the
// hpop.breaker.state.<peer> gauge (0 closed, 1 half-open, 2 open) and the
// hpop.breaker.opens counter.
func (r *HealthRegistry) SetMetrics(m *Metrics) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = m
	for id, ph := range r.peers {
		m.Set("hpop.breaker.state."+id, breakerGauge(ph.breaker.State()))
	}
}

// breakerGauge maps a state to its exported gauge value.
func breakerGauge(s BreakerState) float64 {
	switch s {
	case BreakerOpen:
		return 2
	case BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// get returns (creating if needed) a peer's entry; r.mu must be held.
func (r *HealthRegistry) get(id string) *peerHealth {
	ph, ok := r.peers[id]
	if !ok {
		// A copy: id may be a substring of a whole response body (the
		// loader's decoded wrapper), which the registry must not pin.
		id = strings.Clone(id)
		ph = &peerHealth{
			breaker: NewBreaker(r.cfg),
			latency: NewHistogram(nil),
		}
		r.peers[id] = ph
		r.metrics.Set("hpop.breaker.state."+id, 0)
	}
	return ph
}

// Register ensures a peer exists in the registry (its breaker starts closed
// and its state gauge is exported immediately, so /metrics shows every known
// peer before any traffic).
func (r *HealthRegistry) Register(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.get(id)
}

// observe re-exports the gauge after a breaker operation and counts trips;
// r.mu must be held.
func (r *HealthRegistry) observe(id string, ph *peerHealth, before BreakerState) {
	after := ph.breaker.State()
	if after == before {
		return
	}
	r.metrics.Set("hpop.breaker.state."+id, breakerGauge(after))
	if after == BreakerOpen {
		r.metrics.Inc("hpop.breaker.opens")
	}
}

// Allow reports whether traffic to the peer may proceed (and grants a probe
// slot when the peer's breaker is half-open). Unknown peers are allowed.
func (r *HealthRegistry) Allow(id string) bool {
	if r == nil || id == "" {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.get(id)
	before := ph.breaker.State()
	ok := ph.breaker.Allow()
	r.observe(id, ph, before)
	return ok
}

// RecordSuccess feeds one successful attempt and its latency (seconds; < 0
// skips the histogram) into the peer's breaker and quantiles.
func (r *HealthRegistry) RecordSuccess(id string, latencySeconds float64) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.get(id)
	ph.successes++
	if latencySeconds >= 0 {
		ph.latency.Observe(latencySeconds)
	}
	before := ph.breaker.State()
	ph.breaker.Record(true)
	r.observe(id, ph, before)
}

// RecordFailure feeds one failed attempt into the peer's breaker.
func (r *HealthRegistry) RecordFailure(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.get(id)
	ph.failures++
	before := ph.breaker.State()
	ph.breaker.Record(false)
	r.observe(id, ph, before)
}

// RecordFallback charges the peer for forcing an origin fallback: it counts
// as a breaker failure on top of whatever the attempt itself recorded, so a
// peer that keeps costing extra origin round trips opens its breaker even
// though every page still loads.
func (r *HealthRegistry) RecordFallback(id string) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.get(id)
	ph.fallbacks++
	before := ph.breaker.State()
	ph.breaker.Record(false)
	r.observe(id, ph, before)
}

// ReportSaturation records a peer's self-reported load (inflight/capacity;
// >= 1 means the peer is shedding).
func (r *HealthRegistry) ReportSaturation(id string, sat float64) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.get(id)
	ph.saturation = sat
	ph.lastReport = r.cfg.Now()
}

// State returns the peer's breaker state (closed for unknown peers).
func (r *HealthRegistry) State(id string) BreakerState {
	if r == nil || id == "" {
		return BreakerClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph, ok := r.peers[id]
	if !ok {
		return BreakerClosed
	}
	return ph.breaker.State()
}

// Healthy reports whether a peer is fully admittable: its breaker is
// closed. Unknown peers are healthy.
func (r *HealthRegistry) Healthy(id string) bool {
	if r == nil || id == "" {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph, ok := r.peers[id]
	if !ok {
		return true
	}
	return ph.breaker.State() == BreakerClosed
}

// ProbeDue reports whether the peer's breaker would admit a recovery probe
// right now.
func (r *HealthRegistry) ProbeDue(id string) bool {
	if r == nil || id == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph, ok := r.peers[id]
	return ok && ph.breaker.ProbeDue()
}

// Rank reorders peer IDs by health: closed before half-open before open.
// The sort is stable and health state is the ONLY key, so equally healthy
// peers keep their incoming (wrapper) order — the origin's assignment
// balances load across peers, and re-ranking healthy peers by anything else
// (latency, say) would concentrate every request on one peer and starve the
// others of the traffic their health signal needs.
//
// One deliberate inversion: a peer whose breaker is due for a probe ranks
// FIRST. Half-open recovery is traffic-driven, and a peer that ranks last
// never sees traffic while its replicas keep succeeding — it would stay
// open forever. Promoting it steers exactly one real request at
// it per cooldown (the probe budget gates the rest), which is the canary
// that either re-admits the peer or re-opens the breaker.
func (r *HealthRegistry) Rank(ids []string) []string {
	out := append([]string(nil), ids...)
	if r == nil || len(out) < 2 {
		return out
	}
	key := func(id string) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		ph, ok := r.peers[id]
		if !ok {
			return 0
		}
		if ph.breaker.ProbeDue() {
			return -1
		}
		switch ph.breaker.State() {
		case BreakerHalfOpen:
			return 1
		case BreakerOpen:
			return 2
		}
		return 0
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// PeerHealth is one peer's row in the /debug/health snapshot.
type PeerHealth struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	FailureRate float64   `json:"failureRate"`
	Samples     int       `json:"samples"`
	Opens       int64     `json:"opens"`
	Saturation  float64   `json:"saturation"`
	LatencyP50  float64   `json:"latencyP50Seconds"`
	LatencyP99  float64   `json:"latencyP99Seconds"`
	Successes   int64     `json:"successes"`
	Failures    int64     `json:"failures"`
	Fallbacks   int64     `json:"fallbacks"`
	LastReport  time.Time `json:"lastReport,omitempty"`
}

// HealthSnapshot is the /debug/health JSON shape.
type HealthSnapshot struct {
	Peers []PeerHealth `json:"peers"`
}

// Snapshot returns the registry state, peers sorted by ID.
func (r *HealthRegistry) Snapshot() HealthSnapshot {
	snap := HealthSnapshot{Peers: []PeerHealth{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, ph := range r.peers {
		rate, samples := ph.breaker.FailureRate()
		snap.Peers = append(snap.Peers, PeerHealth{
			ID:          id,
			State:       ph.breaker.State().String(),
			FailureRate: rate,
			Samples:     samples,
			Opens:       ph.breaker.Opens(),
			Saturation:  ph.saturation,
			LatencyP50:  ph.latency.Quantile(0.5),
			LatencyP99:  ph.latency.Quantile(0.99),
			Successes:   ph.successes,
			Failures:    ph.failures,
			Fallbacks:   ph.fallbacks,
			LastReport:  ph.lastReport,
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i].ID < snap.Peers[j].ID })
	return snap
}

// Handler serves the registry snapshot as JSON at GET /debug/health.
// Nil-receiver safe: a daemon without a registry serves an empty peer list.
func (r *HealthRegistry) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(r.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
