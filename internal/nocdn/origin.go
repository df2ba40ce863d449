package nocdn

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// Origin is a content provider using NoCDN. It owns the content, generates
// wrapper pages, and settles usage records. Its state is split by part, so
// the request classes never serialize against each other: each part is a
// struct declared beside its code, its lock first, then what that lock
// guards, then what needs no lock of its own. The parts are the catalog
// (content.go), wrapper assignment (wrappool.go), settlement (settle.go),
// health probing (probe.go) and the durable journal (recovery.go).
type Origin struct {
	// Provider is the site identity peers virtual-host under.
	Provider string
	// Policy shapes the ring walk that picks each object's peer: ring order
	// (SelectRandom), lowest RTT among the first few eligible successors
	// (SelectProximity), or a tighter load bound (SelectLoadAware).
	Policy SelectionPolicy
	// ChunkPeers > 1 splits large objects into that many ranges served by
	// disparate peers ("Leveraging Redundancy").
	ChunkPeers int
	// ChunkThreshold is the minimum object size to chunk (default 256 KB).
	ChunkThreshold int
	// Replicas lists that many alternate peers per whole-object wrapper
	// entry beyond the primary ("Leveraging Redundancy"): the loader can
	// route around a dead primary without an origin round trip. Bytes are
	// assigned under every replica's key too, so whichever peer actually
	// serves can settle its usage record.
	Replicas int
	// RingVnodes is the virtual-node count per peer on the assignment ring
	// (default DefaultRingVnodes).
	RingVnodes int

	// ObjectMaxAge, StaleWhileRevalidate, and StaleIfError shape the
	// Cache-Control policy /content emits (see WithCachePolicy). NewOrigin
	// applies the Default* values; ObjectMaxAge < 0 means "no Cache-Control
	// header" (peers fall back to heuristic freshness).
	ObjectMaxAge         time.Duration
	StaleWhileRevalidate time.Duration
	StaleIfError         time.Duration

	// metrics and tracer, when set, receive the origin's nocdn.origin.*,
	// nocdn.audit.* and nocdn.wal.* series and its spans.
	metrics *hpop.Metrics
	tracer  *hpop.Tracer
	// health, when set, closes the self-healing loop on the origin side:
	// probe outcomes feed it, and wrapper generation ejects unhealthy peers
	// from new peer maps (with hysteresis — readmission goes through the
	// breaker's half-open probe cycle, never a single success).
	health *hpop.HealthRegistry
	// fleet merges peer TelemetryReports (POST /telemetry/batch) into
	// fleet.* rollups, hot-key sketches, and /debug/fleet; slo computes
	// multi-window burn rates over those rollups for /debug/slo. Both are
	// always constructed (they are cheap when nothing reports).
	fleet *FleetAggregator
	slo   *hpop.SLOEngine
	now   func() time.Time

	catalog
	assignment
	settlement
	probing
	journal
}

// OriginOption configures an origin.
type OriginOption func(*Origin)

// WithPolicy sets the peer-selection policy.
func WithPolicy(p SelectionPolicy) OriginOption {
	return func(o *Origin) { o.Policy = p }
}

// WithChunking splits objects >= threshold bytes across n peers.
func WithChunking(n, threshold int) OriginOption {
	return func(o *Origin) {
		o.ChunkPeers = n
		o.ChunkThreshold = threshold
	}
}

// WithReplicas lists n alternate peers per whole-object wrapper entry.
func WithReplicas(n int) OriginOption {
	return func(o *Origin) { o.Replicas = n }
}

// WithHealthRegistry wires the peer-health registry at construction.
func WithHealthRegistry(h *hpop.HealthRegistry) OriginOption {
	return func(o *Origin) { o.SetHealthRegistry(h) }
}

// WithRNG injects deterministic randomness.
func WithRNG(rng *sim.RNG) OriginOption {
	return func(o *Origin) { o.rng = rng }
}

// WithClock injects a time source.
func WithClock(now func() time.Time) OriginOption {
	return func(o *Origin) { o.now = now }
}

// Default object cache policy: short freshness with modest serve-stale
// windows. Loaders don't depend on these (the wrapper hash is their
// freshness authority); they govern plain HTTP clients and give peers
// honest revalidation cadence.
const (
	DefaultObjectMaxAge         = time.Minute
	DefaultStaleWhileRevalidate = 30 * time.Second
	DefaultStaleIfError         = 5 * time.Minute
)

// WithCachePolicy sets the Cache-Control policy /content emits for every
// object (per-object overrides via SetObjectHeader win). maxAge < 0
// suppresses the header entirely; swr/sie <= 0 omit their directives.
func WithCachePolicy(maxAge, swr, sie time.Duration) OriginOption {
	return func(o *Origin) {
		o.ObjectMaxAge = maxAge
		o.StaleWhileRevalidate = swr
		o.StaleIfError = sie
	}
}

// SetMetrics wires a metrics registry for the nocdn.origin.* histograms and
// counters after construction (daemon wiring).
func (o *Origin) SetMetrics(m *hpop.Metrics) {
	o.metrics = m
	o.audit.SetMetrics(m)
	o.fleet.SetMetrics(m)
	o.slo.SetMetrics(m)
}

// SetTracer wires a tracer for the origin's spans after construction
// (daemon wiring).
func (o *Origin) SetTracer(t *hpop.Tracer) {
	o.tracer = t
	o.slo.SetTracer(t)
}

// Audit returns the origin's settlement audit pipeline.
func (o *Origin) Audit() *Auditor { return o.audit }

// SetHealthRegistry wires the peer-health registry after construction
// (daemon wiring — the same registry the loader and /debug/health use).
// Already registered peers are enrolled so their breaker gauges export.
func (o *Origin) SetHealthRegistry(h *hpop.HealthRegistry) {
	o.health = h
	// fleet is nil while options run inside NewOrigin; the constructor
	// re-wires the registry once the aggregator exists.
	o.fleet.SetHealthRegistry(h)
	for _, p := range o.registry.snapshot() {
		h.Register(p.id)
	}
}

// HealthRegistry returns the wired peer-health registry (nil when unset).
func (o *Origin) HealthRegistry() *hpop.HealthRegistry { return o.health }

// NewOrigin creates a content provider.
func NewOrigin(provider string, opts ...OriginOption) *Origin {
	o := &Origin{
		Provider:             provider,
		Policy:               SelectRandom,
		ChunkThreshold:       256 << 10,
		ObjectMaxAge:         DefaultObjectMaxAge,
		StaleWhileRevalidate: DefaultStaleWhileRevalidate,
		StaleIfError:         DefaultStaleIfError,
		now:                  time.Now,
		catalog: catalog{
			objects:    make(map[string]*Object),
			pages:      make(map[string]*Page),
			objHeaders: make(map[string]http.Header),
		},
		assignment: assignment{pool: make(map[string][]*poolEntry), registry: newRegistry()},
		settlement: settlement{ledger: newLedger()},
		probing: probing{
			probeHealthy: make(map[string]bool),
			nominatedSet: make(map[string]bool),
			rng:          sim.NewRNG(1),
			probeClient:  &http.Client{Timeout: 2 * time.Second},
		},
	}
	o.audit = &Auditor{ledger: o.ledger}
	o.setKeySecret(auth.NewSecret(32))
	for _, fn := range opts {
		fn(o)
	}
	o.ring = newRing(o.RingVnodes)
	o.nonces = auth.NewNonceCache(replayWindow, o.now)
	// The telemetry plane shares the origin's (possibly fake) clock, so
	// staleness windows and burn rates advance deterministically in tests.
	o.fleet = NewFleetAggregator(o.now)
	o.slo = hpop.NewSLOEngine(o.now)
	o.fleet.SetSLOEngine(o.slo)
	o.DeclareFleetSLOs(DefaultAvailabilityObjective, DefaultServeLatencyObjective, DefaultServeSLOThreshold)
	o.fleet.SetHealthRegistry(o.health)
	return o
}

// Default fleet SLO objectives.
const (
	// DefaultAvailabilityObjective is the fleet availability target: at
	// most 1 in 1000 proxy requests may fail or shed.
	DefaultAvailabilityObjective = 0.999
	// DefaultServeLatencyObjective is the fleet serve-latency target: 99%
	// of serves complete within the serve threshold.
	DefaultServeLatencyObjective = 0.99
)

// DeclareFleetSLOs (re)declares the origin's three fleet SLOs:
// availability, serve latency (good = served within thresholdSeconds), and
// the zero-tolerance unverified-bytes budget. Out-of-range objectives keep
// the defaults; accumulated burn state survives re-declaration.
func (o *Origin) DeclareFleetSLOs(availability, latency, thresholdSeconds float64) {
	if availability <= 0 || availability > 1 {
		availability = DefaultAvailabilityObjective
	}
	if latency <= 0 || latency > 1 {
		latency = DefaultServeLatencyObjective
	}
	if thresholdSeconds > 0 {
		o.fleet.ServeSLOThreshold = thresholdSeconds
	}
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOFleetAvailability,
		Description: "fleet proxy requests that served bytes (failed or shed requests burn the budget)",
		Objective:   availability,
	})
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOFleetServeLatency,
		Description: fmt.Sprintf("fleet serves completing within %.3fs", o.fleet.serveThreshold()),
		Objective:   latency,
	})
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOZeroUnverified,
		Description: "unverified bytes caught at peers (quarantines); any event empties the budget",
		Objective:   1,
	})
}

// StartLoops runs the origin's background loops: a ProbeSample pass over
// probeSample peers (0: every peer) each probeEvery, and an EpochTick each
// epochEvery. A zero interval leaves that loop off. Shutdown halts both
// before its final snapshot.
func (o *Origin) StartLoops(probeEvery time.Duration, probeSample int, epochEvery time.Duration) {
	if probeEvery > 0 {
		o.probeLoop.start(probeEvery, func(ctx context.Context) { o.ProbeSample(ctx, probeSample) })
	}
	if epochEvery > 0 {
		o.epochLoop.start(epochEvery, func(context.Context) { o.EpochTick() })
	}
}

// Fleet returns the origin's telemetry aggregator.
func (o *Origin) Fleet() *FleetAggregator { return o.fleet }

// SLOEngine returns the origin's SLO engine.
func (o *Origin) SLOEngine() *hpop.SLOEngine { return o.slo }

// Handler returns the origin's HTTP handler:
//
//	GET  /wrapper?page=NAME[&client=ID] -> wrapper page JSON (pooled map for
//	                                       the client; default: remote host)
//	GET  /content/PATH        -> raw object (peer backfill / client fallback)
//	POST /usage/batch         -> Merkle-committed record batch upload
//	POST /gossip              -> delegated neighbor-health report
//	GET  /neighbors?peer=ID   -> the peer's ring-successor probe set
//	GET  /accounting?peer=ID  -> the peer's settlement ledger row JSON
//	POST /telemetry/batch     -> peer metric delta reports (fleet ingest)
//	GET  /debug/wal           -> durable control-plane (WAL) status JSON
//	GET  /debug/fleet         -> fleet rollups, hot keys, worst peers JSON
//	GET  /debug/slo           -> fleet SLO burn rates JSON
//	GET  /debug/audit         -> settlement audit snapshot JSON
//	GET  /debug/health        -> peer-health registry snapshot JSON
//
// Every endpoint continues the caller's distributed trace when the request
// carries a traceparent header; absent or malformed headers open fresh
// roots.
func (o *Origin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/wrapper", o.handleWrapper)
	mux.HandleFunc("/content/", o.handleContent)
	mux.HandleFunc("/usage/batch", o.handleBatch)
	mux.HandleFunc("/gossip", o.handleGossip)
	mux.HandleFunc("/neighbors", o.handleNeighbors)
	mux.HandleFunc("/accounting", o.handleAccounting)
	mux.HandleFunc("/telemetry/batch", o.fleet.BatchHandler())
	mux.HandleFunc("/debug/wal", o.WALHandler())
	mux.HandleFunc("/debug/fleet", o.fleet.Handler())
	mux.HandleFunc("/debug/slo", o.slo.Handler())
	mux.HandleFunc("/debug/audit", o.audit.Handler())
	mux.HandleFunc("/debug/health", o.health.Handler())
	return mux
}
