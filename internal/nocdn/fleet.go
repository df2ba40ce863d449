package nocdn

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
)

// The fleet telemetry plane: peers ship hpop.TelemetryReport deltas to
// POST /telemetry/batch, and the origin's FleetAggregator merges them into
// per-metric fleet rollups (fleet.* in /metrics), heavy-hitter sketches
// (hottest pages, worst peers), and the SLO engine's good/bad event
// streams. GET /debug/fleet answers the questions per-process /metrics
// cannot: fleet-wide serve p99, the hottest objects across the city, and
// which peers are burning the budget.

// fleetShardCount shards per-source state by FNV hash of the source id —
// the same 32-way pattern the settlement ledger uses, so 100k reporting
// peers never serialize on one lock.
const fleetShardCount = 32

// Fleet defaults.
const (
	// DefaultFleetStaleAfter is how long a source stays "active" after its
	// last report before /debug/fleet counts it stale.
	DefaultFleetStaleAfter = 2 * time.Minute
	// DefaultFleetHotKeys is the origin-side space-saving sketch capacity.
	DefaultFleetHotKeys = 1024
	// DefaultFleetTopK is /debug/fleet's default list length.
	DefaultFleetTopK = 10
	// DefaultServeSLOThreshold splits good/bad latency events: serves at or
	// under this many seconds meet the fleet serve-latency SLO.
	DefaultServeSLOThreshold = 0.25
)

// Fleet SLO names (declared by the origin over the aggregator's rollups).
const (
	SLOFleetAvailability = "fleet-availability"
	SLOFleetServeLatency = "fleet-serve-p99"
	SLOZeroUnverified    = "zero-unverified-bytes"
)

// TelemetryBatch is the POST /telemetry/batch request body. Peers usually
// carry one report, but the format is a batch so relays or test drivers can
// piggyback many sources per request.
type TelemetryBatch struct {
	Reports []*hpop.TelemetryReport `json:"reports"`
}

// TelemetryAck is the response: per-source acknowledged sequence numbers.
// A source may commit its delta baseline once its seq appears here —
// whether the report was applied or recognized as an already-applied
// duplicate (both mean the aggregator has the data).
type TelemetryAck struct {
	Accepted   int               `json:"accepted"`
	Duplicates int               `json:"duplicates"`
	Acks       map[string]uint64 `json:"acks"`
}

// fleetSource is one reporting peer's aggregated view.
type fleetSource struct {
	lastSeq    uint64
	lastReport time.Time
	requests   float64 // cumulative proxy requests (hits + misses + shed)
	errors     float64 // cumulative failed/shed proxy requests
	saturation float64 // last reported gauge
	serveHist  *hpop.Histogram
	serveP99   float64 // recomputed at ingest, so /debug/fleet never scans buckets
}

// fleetShard is one lock's worth of sources.
type fleetShard struct {
	mu      sync.Mutex
	sources map[string]*fleetSource
}

// FleetAggregator merges TelemetryReports into fleet-wide rollups.
//
// Rollup counters and histograms live in the origin's metrics registry
// under a "fleet." prefix (fleet.nocdn.peer.hits, fleet.nocdn.peer.
// serve_seconds, ...), so they export through /metrics with zero extra
// machinery and histogram merging reuses Histogram.MergeBuckets — the
// sharded atomic cells make ingest lock-free once the cell exists.
// Per-source state (sequence dedup, error rates, serve p99) shards 32 ways
// by source hash. Idempotency: each source's reports apply in sequence
// order exactly once; a replayed or reordered duplicate is acknowledged but
// not re-applied.
type FleetAggregator struct {
	metrics *hpop.Metrics
	slo     *hpop.SLOEngine
	health  *hpop.HealthRegistry
	now     func() time.Time

	// StaleAfter bounds how long a silent source still counts as active
	// (DefaultFleetStaleAfter when zero).
	StaleAfter time.Duration
	// ServeSLOThreshold is the good/bad latency split in seconds
	// (DefaultServeSLOThreshold when zero).
	ServeSLOThreshold float64

	shards  [fleetShardCount]fleetShard
	hotKeys *hpop.SpaceSaving

	sources    atomic.Int64
	reports    atomic.Int64
	duplicates atomic.Int64
	malformed  atomic.Int64

	// The /debug/fleet snapshot cache: building a snapshot is a full pass
	// over every source, so the handler reuses one until it ages past
	// fleetSnapshotTTL or a new report lands — bounding per-request work
	// regardless of fleet size.
	snapMu        sync.Mutex
	snapCached    *FleetSnapshot
	snapAt        time.Time
	snapK         int
	snapAtReports int64
}

// NewFleetAggregator creates an aggregator on the given clock (nil means
// wall time).
func NewFleetAggregator(now func() time.Time) *FleetAggregator {
	if now == nil {
		now = time.Now
	}
	a := &FleetAggregator{now: now, hotKeys: hpop.NewSpaceSaving(DefaultFleetHotKeys)}
	for i := range a.shards {
		a.shards[i].sources = make(map[string]*fleetSource)
	}
	return a
}

// SetMetrics wires the registry fleet.* rollups merge into.
func (a *FleetAggregator) SetMetrics(m *hpop.Metrics) {
	if a == nil {
		return
	}
	a.metrics = m
}

// SetSLOEngine wires the engine availability/latency/integrity events feed.
func (a *FleetAggregator) SetSLOEngine(e *hpop.SLOEngine) {
	if a == nil {
		return
	}
	a.slo = e
}

// SetHealthRegistry wires the breaker registry /debug/fleet's
// worst-by-breaker-opens view reads.
func (a *FleetAggregator) SetHealthRegistry(h *hpop.HealthRegistry) {
	if a == nil {
		return
	}
	a.health = h
}

func (a *FleetAggregator) staleAfter() time.Duration {
	if a.StaleAfter > 0 {
		return a.StaleAfter
	}
	return DefaultFleetStaleAfter
}

func (a *FleetAggregator) serveThreshold() float64 {
	if a.ServeSLOThreshold > 0 {
		return a.ServeSLOThreshold
	}
	return DefaultServeSLOThreshold
}

// shardFor picks the source's shard (same FNV-1a mask as the ledger).
func (a *FleetAggregator) shardFor(source string) *fleetShard {
	return &a.shards[fnv64a(source)&(fleetShardCount-1)]
}

// Ingest applies one report. Returns true when the report was applied,
// false when it was a duplicate of an already-applied sequence (still
// acknowledgeable) — and an error only for malformed reports.
func (a *FleetAggregator) Ingest(rep *hpop.TelemetryReport) (bool, error) {
	if a == nil {
		return false, fmt.Errorf("nocdn: no fleet aggregator")
	}
	if !wellFormed(rep) {
		a.malformed.Add(1)
		return false, fmt.Errorf("nocdn: telemetry report needs source and seq")
	}

	// Per-source bookkeeping under the shard lock: sequence dedup, then
	// the derived worst-peer signals.
	counter := func(name string) float64 { return rep.Counters[name] }
	hits := counter("nocdn.peer.hits")
	misses := counter("nocdn.peer.misses")
	shed := counter("nocdn.peer.shed")
	proxyErrs := counter("nocdn.peer.proxy_errors")
	requests := hits + misses + shed
	bad := proxyErrs + shed

	sh := a.shardFor(rep.Source)
	sh.mu.Lock()
	src, ok := sh.sources[rep.Source]
	if !ok {
		src = &fleetSource{}
		sh.sources[rep.Source] = src
		a.sources.Add(1)
	}
	if rep.Seq <= src.lastSeq {
		sh.mu.Unlock()
		a.duplicates.Add(1)
		a.metrics.Inc("fleet.telemetry.duplicates")
		return false, nil
	}
	src.lastSeq = rep.Seq
	src.lastReport = a.now()
	src.requests += requests
	src.errors += bad
	if sat, ok := rep.Gauges["nocdn.peer.saturation"]; ok {
		src.saturation = sat
	}
	if d, ok := rep.Histograms["nocdn.peer.serve_seconds"]; ok {
		if src.serveHist == nil {
			src.serveHist = hpop.NewHistogram(d.Bounds)
		}
		if src.serveHist.MergeBuckets(d.Counts, d.Sum) == nil {
			// p99 recomputed once per report (a ~27-bucket scan), never on
			// the /debug/fleet query path.
			src.serveP99 = src.serveHist.Quantile(0.99)
		}
	}
	sh.mu.Unlock()

	// Fleet rollups: counter deltas add into sharded atomic cells,
	// histogram deltas merge bucket-exactly. Gauges are per-source signals
	// (a sum of saturations means nothing) and stay out of the rollup.
	for name, v := range rep.Counters {
		a.metrics.Add("fleet."+name, v)
	}
	for name, d := range rep.Histograms {
		h := a.metrics.HistogramWithBounds("fleet."+name, d.Bounds)
		if err := h.MergeBuckets(d.Counts, d.Sum); err != nil {
			// Bounds drifted between peer versions: drop the delta rather
			// than corrupt the rollup, and make the drop visible.
			a.metrics.Inc("fleet.telemetry.bounds_mismatch")
		}
	}
	for key, n := range rep.HotKeys {
		a.hotKeys.Add(key, n)
	}

	a.reports.Add(1)
	a.metrics.Inc("fleet.telemetry.reports")
	a.feedSLOs(rep, requests, bad)
	return true, nil
}

// feedSLOs converts one applied report's deltas into SLO good/bad events.
func (a *FleetAggregator) feedSLOs(rep *hpop.TelemetryReport, requests, bad float64) {
	if a.slo == nil {
		return
	}
	// Availability: every proxy request either served bytes or failed/shed.
	if requests > 0 {
		good := requests - bad
		if good < 0 {
			good = 0
		}
		a.slo.Record(SLOFleetAvailability, good, bad)
	}
	// Serve latency: bucket-exact good/bad split from the histogram delta —
	// samples in buckets whose upper bound is within the threshold are good.
	if d, ok := rep.Histograms["nocdn.peer.serve_seconds"]; ok {
		threshold := a.serveThreshold()
		var good, slow uint64
		for i, c := range d.Counts {
			if i < len(d.Bounds) && d.Bounds[i] <= threshold {
				good += c
			} else {
				slow += c
			}
		}
		a.slo.Record(SLOFleetServeLatency, float64(good), float64(slow))
	}
	// Integrity: quarantines are bytes that would have served unverified —
	// the zero-tolerance budget. Requests are the good-event stream.
	unverified := rep.Counters["nocdn.cache.quarantined"] + rep.Counters["nocdn.scrub.quarantined"]
	if requests > 0 || unverified > 0 {
		a.slo.Record(SLOZeroUnverified, requests, unverified)
	}
}

// wellFormed reports whether rep names its source and a sequence.
func wellFormed(rep *hpop.TelemetryReport) bool {
	return rep != nil && rep.Source != "" && rep.Seq != 0
}

// IngestBatch applies every report in a batch and returns the ack. A batch
// holding a malformed report applies none of them.
func (a *FleetAggregator) IngestBatch(batch TelemetryBatch) (TelemetryAck, error) {
	for _, rep := range batch.Reports {
		if !wellFormed(rep) {
			_, err := a.Ingest(rep) // counts and refuses it
			return TelemetryAck{}, err
		}
	}
	ack := TelemetryAck{Acks: make(map[string]uint64, len(batch.Reports))}
	for _, rep := range batch.Reports {
		applied, err := a.Ingest(rep)
		if err != nil {
			return ack, err
		}
		if applied {
			ack.Accepted++
		} else {
			ack.Duplicates++
		}
		if rep.Seq > ack.Acks[rep.Source] {
			ack.Acks[rep.Source] = rep.Seq
		}
	}
	return ack, nil
}

// FleetPeerRow is one peer in a /debug/fleet worst-peers list.
type FleetPeerRow struct {
	Peer         string    `json:"peer"`
	ErrorRate    float64   `json:"errorRate"`
	Errors       float64   `json:"errors"`
	Requests     float64   `json:"requests"`
	ServeP99MS   float64   `json:"serveP99Ms"`
	Saturation   float64   `json:"saturation,omitempty"`
	BreakerOpens int64     `json:"breakerOpens,omitempty"`
	BreakerState string    `json:"breakerState,omitempty"`
	Stale        bool      `json:"stale,omitempty"`
	LastReport   time.Time `json:"lastReport"`
}

// FleetWorst groups the three worst-peer rankings.
type FleetWorst struct {
	ByErrorRate    []FleetPeerRow `json:"byErrorRate"`
	ByServeP99     []FleetPeerRow `json:"byServeP99"`
	ByBreakerOpens []FleetPeerRow `json:"byBreakerOpens"`
}

// FleetSnapshot is the /debug/fleet JSON shape.
type FleetSnapshot struct {
	Now               time.Time          `json:"now"`
	Sources           int64              `json:"sources"`
	ActiveSources     int64              `json:"activeSources"`
	StaleAfterSeconds float64            `json:"staleAfterSeconds"`
	Reports           int64              `json:"reports"`
	Duplicates        int64              `json:"duplicates"`
	Malformed         int64              `json:"malformed"`
	ServeP50MS        float64            `json:"serveP50Ms"`
	ServeP99MS        float64            `json:"serveP99Ms"`
	Counters          map[string]float64 `json:"counters"`
	HotKeys           []hpop.KeyCount    `json:"hotKeys"`
	WorstPeers        FleetWorst         `json:"worstPeers"`
}

// topSelector keeps the k largest rows by score with linear insertion —
// k is small (tens), so this beats a heap on constant factors and keeps
// the per-source scan allocation-free.
type topSelector struct {
	rows   []FleetPeerRow
	scores []float64
	k      int
}

func newTopSelector(k int) *topSelector {
	return &topSelector{rows: make([]FleetPeerRow, 0, k), scores: make([]float64, 0, k), k: k}
}

func (t *topSelector) offer(score float64, row FleetPeerRow) {
	if len(t.rows) == t.k {
		if score <= t.scores[len(t.scores)-1] {
			return
		}
		t.rows = t.rows[:t.k-1]
		t.scores = t.scores[:t.k-1]
	}
	i := sort.Search(len(t.scores), func(i int) bool { return t.scores[i] < score })
	t.rows = append(t.rows, FleetPeerRow{})
	t.scores = append(t.scores, 0)
	copy(t.rows[i+1:], t.rows[i:])
	copy(t.scores[i+1:], t.scores[i:])
	t.rows[i] = row
	t.scores[i] = score
}

// Snapshot builds the /debug/fleet view: fleet quantiles from the merged
// rollup histogram, hot keys from the sketch, and three bounded worst-peer
// rankings selected in one pass over the per-source states (top-k
// selection, never a full materialized sort).
func (a *FleetAggregator) Snapshot(k int) FleetSnapshot {
	if a == nil {
		return FleetSnapshot{Counters: map[string]float64{}, HotKeys: []hpop.KeyCount{}}
	}
	if k <= 0 {
		k = DefaultFleetTopK
	}
	now := a.now()
	stale := a.staleAfter()
	snap := FleetSnapshot{
		Now:               now,
		Sources:           a.sources.Load(),
		StaleAfterSeconds: stale.Seconds(),
		Reports:           a.reports.Load(),
		Duplicates:        a.duplicates.Load(),
		Malformed:         a.malformed.Load(),
		Counters:          map[string]float64{},
	}

	byErr := newTopSelector(k)
	byP99 := newTopSelector(k)
	var active int64
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for id, src := range sh.sources {
			isStale := now.Sub(src.lastReport) > stale
			if !isStale {
				active++
			}
			row := FleetPeerRow{
				Peer:       id,
				Errors:     src.errors,
				Requests:   src.requests,
				ServeP99MS: src.serveP99 * 1000,
				Saturation: src.saturation,
				Stale:      isStale,
				LastReport: src.lastReport,
			}
			if src.requests > 0 {
				row.ErrorRate = src.errors / src.requests
			}
			if row.ErrorRate > 0 {
				byErr.offer(row.ErrorRate, row)
			}
			if row.ServeP99MS > 0 {
				byP99.offer(row.ServeP99MS, row)
			}
		}
		sh.mu.Unlock()
	}
	snap.ActiveSources = active
	a.metrics.Set("fleet.telemetry.sources", float64(snap.Sources))
	a.metrics.Set("fleet.telemetry.active_sources", float64(active))

	if h := a.metrics.Histogram("fleet.nocdn.peer.serve_seconds"); h != nil {
		snap.ServeP50MS = h.Quantile(0.5) * 1000
		snap.ServeP99MS = h.Quantile(0.99) * 1000
	}
	for name, v := range a.metrics.Snapshot() {
		if strings.HasPrefix(name, "fleet.") {
			snap.Counters[name] = v
		}
	}
	snap.HotKeys = a.hotKeys.Top(k)
	snap.WorstPeers = FleetWorst{
		ByErrorRate:    byErr.rows,
		ByServeP99:     byP99.rows,
		ByBreakerOpens: a.worstByBreaker(k),
	}
	return snap
}

// worstByBreaker ranks peers by breaker opens from the health registry (the
// origin-side signal telemetry reports cannot carry).
func (a *FleetAggregator) worstByBreaker(k int) []FleetPeerRow {
	rows := []FleetPeerRow{}
	if a.health == nil {
		return rows
	}
	hs := a.health.Snapshot()
	sort.Slice(hs.Peers, func(i, j int) bool {
		if hs.Peers[i].Opens != hs.Peers[j].Opens {
			return hs.Peers[i].Opens > hs.Peers[j].Opens
		}
		return hs.Peers[i].ID < hs.Peers[j].ID
	})
	for _, ph := range hs.Peers {
		if ph.Opens == 0 || len(rows) == k {
			break
		}
		rows = append(rows, FleetPeerRow{
			Peer:         ph.ID,
			BreakerOpens: ph.Opens,
			BreakerState: ph.State,
			Errors:       float64(ph.Failures),
			Requests:     float64(ph.Successes + ph.Failures),
		})
	}
	return rows
}

// fleetSnapshotTTL bounds how stale a cached /debug/fleet snapshot may be
// when no new report has landed since it was built.
const fleetSnapshotTTL = time.Second

// CachedSnapshot is Snapshot behind a freshness check: the cached view is
// reused while it is younger than fleetSnapshotTTL and no report has been
// applied since it was built. At 100k sources a snapshot is a multi-ms
// full-fleet pass — the cache keeps /debug/fleet in microseconds between
// state changes without ever serving a view that omits an applied report.
func (a *FleetAggregator) CachedSnapshot(k int) FleetSnapshot {
	if a == nil {
		return FleetSnapshot{Counters: map[string]float64{}, HotKeys: []hpop.KeyCount{}}
	}
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	now := a.now()
	reports := a.reports.Load()
	fresh := a.snapCached != nil && a.snapK == k && a.snapAtReports == reports &&
		!now.Before(a.snapAt) && now.Sub(a.snapAt) < fleetSnapshotTTL
	if fresh {
		return *a.snapCached
	}
	snap := a.Snapshot(k)
	a.snapCached, a.snapAt, a.snapK, a.snapAtReports = &snap, now, k, reports
	return snap
}

// Handler serves the fleet snapshot as JSON at GET /debug/fleet (optional
// ?k= bounds the hot-key and worst-peer list lengths, max 100).
func (a *FleetAggregator) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		k := 0
		if q := r.URL.Query().Get("k"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 || v > 100 {
				http.Error(w, "bad k (want 1..100)", http.StatusBadRequest)
				return
			}
			k = v
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(a.CachedSnapshot(k)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// BatchHandler serves POST /telemetry/batch: decode, ingest, ack. Malformed
// JSON or reports are a 400 that applies nothing, an upload past 8 MiB a
// 413; applied and duplicate reports both ack so retrying peers converge.
func (a *FleetAggregator) BatchHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readUpload(w, r, 8<<20)
		if !ok {
			return
		}
		var batch TelemetryBatch
		if err := json.Unmarshal(body, &batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := a.IngestBatch(batch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ack)
	}
}
