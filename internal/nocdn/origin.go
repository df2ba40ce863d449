package nocdn

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"mime"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// Control-plane defaults.
const (
	// DefaultSettleSampleK was how many leaves of a settlement batch had
	// their signatures verified.
	//
	// Deprecated: settlement verifies every record's signature; nothing
	// samples. It is kept only for callers that still read it.
	DefaultSettleSampleK = 16
	// anomalyFactor: a peer whose credited bytes exceed assigned bytes by
	// this factor is suspended.
	anomalyFactor = 1.5
)

// Origin is a content provider using NoCDN. It owns the content, generates
// wrapper pages, and settles usage records.
//
// Locking is split by role so the request classes never serialize against
// each other: contentMu (RWMutex) guards the published objects and pages;
// the peer directory lives in an RWMutex'd registry; the settlement ledger
// is sharded 32 ways by hash with per-shard locks (settlement for disjoint
// peers never contends); client→peer assignment reads a consistent-hash
// ring; and the byte counters are atomics. Short-term keys hold no state
// and take no lock (see keyRow). Wrapper serving takes no origin-wide lock;
// settlement's one (commitMu) only orders commits against snapshot cuts.
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

	// metrics, when set, receives the origin-side histograms:
	// nocdn.origin.wrapper_seconds (actual wrapper builds, pooled serves
	// excluded) and nocdn.origin.settle_seconds (usage-record batch
	// settlement), plus nocdn.origin.records_rejected and the nocdn.audit.*
	// family.
	metrics *hpop.Metrics
	// tracer, when set, records settlement spans: one settle_batch span per
	// upload (continuing the uploading peer's flush trace) and one
	// settle_record span per record (continuing the page view's trace via
	// the record's embedded traceparent).
	tracer *hpop.Tracer
	// audit is the read view over the evidence half of the ledger's rows.
	audit *Auditor
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

	// contentMu guards the published catalog (objects, pages) and the
	// per-object header overrides. The serving hot path takes only the read
	// lock; publishes are rare writes. Object hashes are computed once at
	// publish time (AddObject), never on the serving path.
	contentMu  sync.RWMutex
	objects    map[string]*Object
	pages      map[string]*Page
	objHeaders map[string]http.Header

	// contentEpoch advances on every publish. Pooled wrappers record the
	// epoch they were built under, so a publish invalidates them immediately
	// (hash-epoch-aware expiry).
	contentEpoch atomic.Int64
	// assignEpoch advances whenever the assignable peer set changes
	// (registration, ejection, readmission, anomaly suspension) and on
	// every EpochTick. Pooled wrapper maps are valid for one assignEpoch.
	assignEpoch atomic.Int64

	// registry is the peer directory (static ID/URL/RTT rows); ledger is
	// the sharded settlement state; ring is the consistent-hash
	// client→peer assignment structure; pool holds precomputed wrapper maps.
	registry *registry
	ledger   *ledger
	ring     *hashRing
	pool     *wrapperPool

	nonces *auth.NonceCache // internally locked
	now    func() time.Time

	// keySecret is the origin secret every short-term key derives from,
	// drawn by NewOrigin or adopted by AttachWAL; derivers are keyed with it.
	keySecret []byte
	derivers  *sync.Pool

	// commitMu orders settlement commits against snapshot capture: a settle
	// record's journal append and its ledger/audit application happen
	// atomically with respect to the snapshot cut, which is what makes the
	// (only) non-idempotent record type safe to replay. Every other record
	// type replays idempotently and journals without this lock.
	commitMu sync.Mutex
	// wal, when attached, is the durable control-plane journal; walOpts and
	// walRecovery remember the attach configuration and startup replay.
	wal          *controlWAL
	walOpts      WALOptions
	walRecovery  RecoveryStats
	snapshotGate atomic.Bool

	// rngMu guards the deterministic RNG that probe sampling draws from.
	rngMu sync.Mutex
	rng   *sim.RNG

	// probeMu guards the per-peer health verdict as of the last probe pass
	// (so transitions are detected) and the registered peers gossip has
	// nominated for the next pass, in nomination order, each at most once;
	// probeClient bounds every direct probe.
	probeMu      sync.Mutex
	probeHealthy map[string]bool
	nominated    []string
	nominatedSet map[string]bool
	probeClient  *http.Client

	// wrapperGenerations counts actual wrapper builds (vs pooled serves) for
	// the reuse experiment and the control-plane sweep's hot-path assertion.
	wrapperGenerations atomic.Int64

	// served tracks origin bytes out (wrapper + cache-miss backfill), the
	// scalability metric E4 reports. Atomic so serving never takes a lock.
	wrapperBytes atomic.Int64
	originBytes  atomic.Int64
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

// SetTracer wires a tracer for settlement and audit spans after construction
// (daemon wiring).
func (o *Origin) SetTracer(t *hpop.Tracer) {
	o.tracer = t
	o.audit.SetTracer(t)
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
		objects:              make(map[string]*Object),
		pages:                make(map[string]*Page),
		objHeaders:           make(map[string]http.Header),
		ObjectMaxAge:         DefaultObjectMaxAge,
		StaleWhileRevalidate: DefaultStaleWhileRevalidate,
		StaleIfError:         DefaultStaleIfError,
		rng:                  sim.NewRNG(1),
		now:                  time.Now,
		registry:             newRegistry(),
		ledger:               newLedger(),
		probeHealthy:         make(map[string]bool),
		nominatedSet:         make(map[string]bool),
		probeClient:          &http.Client{Timeout: 2 * time.Second},
		pool:                 newWrapperPool(),
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
	if o.health != nil {
		o.fleet.SetHealthRegistry(o.health)
	}
	if o.metrics != nil {
		o.fleet.SetMetrics(o.metrics)
		o.slo.SetMetrics(o.metrics)
	}
	if o.tracer != nil {
		o.slo.SetTracer(o.tracer)
	}
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

// Fleet returns the origin's telemetry aggregator.
func (o *Origin) Fleet() *FleetAggregator { return o.fleet }

// SLOEngine returns the origin's SLO engine.
func (o *Origin) SLOEngine() *hpop.SLOEngine { return o.slo }

// AddObject registers content. The integrity hash is precomputed here, so
// neither wrapper generation nor content serving ever hashes on a hot path.
// The Content-Type is detected from the path extension (falling back to
// content sniffing); use AddObjectWithType to set it explicitly. Publishing
// advances the content epoch, which invalidates every pooled wrapper — they
// carry per-object hashes and must never outlive the bytes they attest.
func (o *Origin) AddObject(path string, data []byte) {
	o.AddObjectWithType(path, data, detectContentType(path, data))
}

// AddObjectWithType registers content with an explicit media type.
func (o *Origin) AddObjectWithType(path string, data []byte, contentType string) {
	obj := &Object{Path: path, Data: data, Hash: HashBytes(data), ContentType: contentType}
	o.contentMu.Lock()
	o.objects[path] = obj
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// detectContentType resolves a published object's media type: the path
// extension first (stable across republish), content sniffing second.
func detectContentType(path string, data []byte) string {
	if dot := strings.LastIndexByte(path, '.'); dot >= 0 && !strings.ContainsRune(path[dot:], '/') {
		if ct := mime.TypeByExtension(path[dot:]); ct != "" {
			return ct
		}
	}
	return http.DetectContentType(data)
}

// SetObjectHeader overrides (or, with an empty value, clears) one response
// header /content sends for path — how a provider opts an object into
// no-store, a longer max-age, an Expires date, or Vary keying. Counts as a
// publish for the wrapper pool: policy changes take effect on the next
// wrapper.
func (o *Origin) SetObjectHeader(path, name, value string) {
	o.contentMu.Lock()
	h := o.objHeaders[path]
	if h == nil {
		h = make(http.Header)
		o.objHeaders[path] = h
	}
	if value == "" {
		h.Del(name)
	} else {
		h.Set(name, value)
	}
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// AddPage registers a page (container + embedded object paths). All paths
// must already exist as objects, and the name must pass CheckName.
func (o *Origin) AddPage(p Page) error {
	if err := CheckName(p.Name); err != nil {
		return err
	}
	o.contentMu.Lock()
	defer o.contentMu.Unlock()
	if _, ok := o.objects[p.Container]; !ok {
		return fmt.Errorf("%w: container %s", ErrUnknownObject, p.Container)
	}
	for _, e := range p.Embedded {
		if _, ok := o.objects[e]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownObject, e)
		}
	}
	o.pages[p.Name] = &p
	return nil
}

// RegisterPeer recruits a peer: directory row, health enrollment, and a set
// of virtual nodes on the assignment ring. Fleet changes advance the
// assignment epoch so pooled wrapper maps refresh to include (or drop) the
// peer on their next serve. An ID that fails CheckName is refused.
func (o *Origin) RegisterPeer(id, url string, rttMillis float64) error {
	if err := CheckName(id); err != nil {
		return err
	}
	o.health.Register(id)
	o.registry.add(id, url, rttMillis)
	o.ring.add(id)
	ep := o.assignEpoch.Add(1)
	// Apply-then-journal: every effect above replays idempotently, so a
	// crash between apply and append loses nothing that was acknowledged.
	o.journalPeerRegister(id, url, rttMillis, ep)
	return nil
}

// Peers returns a snapshot of the registry: directory rows with the mutable
// Assigned/Suspended state filled from the ledger.
func (o *Origin) Peers() []PeerInfo {
	static := o.registry.snapshot()
	out := make([]PeerInfo, len(static))
	for i, p := range static {
		row := o.ledger.row(p.id)
		out[i] = PeerInfo{
			ID:        p.id,
			URL:       p.url,
			RTTMillis: p.rtt,
			Assigned:  int(row.AssignCount),
			Suspended: row.Suspended,
		}
	}
	return out
}

// refMeta is the publish-time object metadata wrapper generation needs —
// snapshotted under the content read lock so generation itself never holds
// the content lock.
type refMeta struct {
	hash string
	size int
}

// pageMeta snapshots one page's layout and object metadata under the
// content read lock: the ordered paths (container first) and each object's
// publish-time hash and size.
func (o *Origin) pageMeta(page string) ([]string, map[string]refMeta, error) {
	o.contentMu.RLock()
	defer o.contentMu.RUnlock()
	p, ok := o.pages[page]
	if !ok {
		return nil, nil, ErrUnknownPage
	}
	paths := append([]string{p.Container}, p.Embedded...)
	meta := make(map[string]refMeta, len(paths))
	for _, path := range paths {
		obj := o.objects[path]
		meta[path] = refMeta{hash: obj.Hash, size: len(obj.Data)}
	}
	return paths, meta, nil
}

// WrapperGenerations returns how many wrappers were actually built (pooled
// serves do not count) — the savings metric for wrapper reuse and the
// control-plane sweep's hot-path assertion.
func (o *Origin) WrapperGenerations() int64 {
	return o.wrapperGenerations.Load()
}

// randIntn draws from the origin's deterministic RNG (probe sampling).
func (o *Origin) randIntn(n int) int {
	o.rngMu.Lock()
	defer o.rngMu.Unlock()
	return o.rng.Intn(n)
}

// invalidateWrappers advances the assignment epoch so pooled maps rebuild
// on their next serve.
func (o *Origin) invalidateWrappers() {
	o.assignEpoch.Add(1)
}

// etagMatches implements the If-None-Match comparison: "*" matches any
// representation, otherwise each listed (possibly W/-prefixed) tag is
// weak-compared against the current one.
func etagMatches(ifNoneMatch, etag string) bool {
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// ---- settlement ----

// SettleBatch settles a Merkle-committed record batch. The batch is refused
// whole, with ErrBadBatch and without a ledger row, journal record or
// consumed nonce, when its uploader is not a registered peer or the root
// does not recompute over the records; a root that was already settled (its
// nonce guards whole-batch replay) is refused the same way. Otherwise every
// record is checked on its own, signature included: a bad record is
// rejected alone, and the records beside it still credit. Every outcome —
// credit, rejection, audit evidence — is charged to b.PeerID, whatever peer
// a record names; nobody is flagged for a record. It returns how many
// records were credited, and an error exactly when that is fewer than the
// batch holds: ErrBadBatch for a refused batch, else the rejected records'
// errors joined, each wrapping ErrBadRecord.
func (o *Origin) SettleBatch(b RecordBatch) (int, error) {
	return o.settle(hpop.TraceContext{}, b, recordLeaves(b.Records))
}

// settle is the one settlement pipeline: refuse, check every record, then
// commitSettlement. The batch span continues the uploading peer's flush
// trace (parent, from the request's traceparent header); each per-record
// span continues the page view's trace via the traceparent the loader
// embedded (and signed) in the record — if that is absent or malformed, it
// falls back to a child of the batch span. leaves[i] is b.Records[i]'s
// LeafBytes: the bytes an upload carried, or derived from the records in
// process. The root is checked and every signature verified over them,
// never over a re-encoding.
func (o *Origin) settle(parent hpop.TraceContext, b RecordBatch, leaves [][]byte) (credited int, err error) {
	o.metrics.Inc("nocdn.origin.batches")
	sp := o.tracer.StartRemote("nocdn.origin", "settle_batch", parent)
	sp.SetLabel("records", strconv.Itoa(len(b.Records)))
	defer func() {
		if err != nil {
			sp.SetError(err)
		}
		sp.End()
	}()
	start := time.Now()

	// The upload is not authenticated, so a refusal leaves nothing behind:
	// only a batch that commits can open or move a ledger row. Nor does a
	// span, which outlives the request in the tracer's ring: it is labelled
	// only with a registered ID, and quotes at most 64 characters of another.
	if _, ok := o.registry.get(b.PeerID); !ok {
		o.metrics.Inc("nocdn.origin.batches_rejected")
		return 0, fmt.Errorf("%w: uploader %.64q is not a registered peer", ErrBadBatch, b.PeerID)
	}
	sp.SetLabel("peer", b.PeerID)
	if MerkleRoot(leaves) != b.Root {
		o.metrics.Inc("nocdn.origin.batches_rejected")
		return 0, fmt.Errorf("%w: root mismatch", ErrBadBatch)
	}
	if len(b.Records) == 0 {
		return 0, nil
	}

	rec := walSettleRec{PeerID: b.PeerID, Root: b.Root, Credits: make(map[string]int64), Rejects: make(map[string]int64)}
	outcomes := make([]settleOutcome, 0, len(b.Records))
	var v leafVerifier
	for i := range b.Records {
		r := b.Records[i]
		var rsp *hpop.Span
		if rtc, perr := hpop.ParseTraceparent(r.Traceparent); perr == nil {
			rsp = o.tracer.StartRemote("nocdn.origin", "settle_record", rtc)
		} else {
			rsp = sp.Child("settle_record")
		}
		rsp.SetLabel("peer", b.PeerID) // who the outcome is charged to
		rsp.SetLabel("bytes", strconv.FormatInt(r.Bytes, 10))
		oc := settleOutcome{rec: r, err: o.checkRecord(&v, r, b.PeerID, leaves[i])}
		if oc.err != nil {
			rec.Rejects[b.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			rsp.SetError(oc.err)
		} else {
			// Credit is tentative until the commit consumes the nonce; a
			// replay detected there demotes the record to a rejection.
			oc.nonceKey = r.KeyID + "|" + r.Nonce
			rec.Credits[b.PeerID] += r.Bytes
		}
		outcomes = append(outcomes, oc)
		rsp.End()
	}
	// The batch nonce (the whole-batch replay guard) is consumed by
	// commitSettlement under the commit lock, atomically with the journal
	// append, which aborts when the root was already settled. A replayed
	// batch therefore wastes the checks above, but replays are rare and a
	// nonce consumed before the journal cut could strand the peer's credit
	// across a crash.
	credited, cerr := o.commitSettlement(rec, outcomes)
	if cerr != nil {
		return 0, o.batchReplayed(cerr)
	}
	sp.SetLabel("credited", strconv.Itoa(credited))
	o.metrics.Observe("nocdn.origin.settle_seconds", time.Since(start).Seconds())
	if credited == len(outcomes) {
		return credited, nil
	}
	errs := make([]error, 0, len(outcomes)-credited)
	for i, oc := range outcomes {
		if oc.err != nil {
			errs = append(errs, fmt.Errorf("record %d: %w", i, oc.err))
		}
	}
	return credited, errors.Join(errs...)
}

// batchReplayed counts and wraps a commit aborted by a consumed batch nonce.
func (o *Origin) batchReplayed(cerr error) error {
	o.metrics.Inc("nocdn.origin.batches_replayed")
	return fmt.Errorf("%w: %w", ErrBadBatch, cerr)
}

// commitSettlement is settle's durable apply step: under the commit lock the
// batch's nonces are consumed, the settle record (credits, rejects, consumed
// nonces, audit delta, assigned floor) is journaled, and only then is it
// applied to the uploader's ledger row, with the anomaly verdict, in one
// ledger call — so a snapshot can never capture a half-applied batch, nor a
// consumed nonce whose settle record is not yet journaled. Consuming nonces
// any earlier opens a credit-loss window: a snapshot cut between consumption
// and the journal append would, after a crash, restore the nonce as spent
// while the credit was never journaled, bouncing the peer's retry of a
// never-acked batch as a replay. The fsync wait happens after the lock is
// released (group commit), before the caller acknowledges the peer.
//
// The batch nonce, "batch|" + rec.Root, is the whole-batch replay guard: if
// it was already consumed the commit aborts with the replay error and no
// state changes (the earlier settlement of the same commitment already
// journaled its decision). A per-record nonce that turns out to be consumed — an
// earlier commit won the race — demotes that record from credit to a replay
// rejection in both the journal record and the applied delta. Returns how
// many records were actually credited. Every outcome belongs to rec.PeerID,
// the batch's uploader.
func (o *Origin) commitSettlement(rec walSettleRec, outcomes []settleOutcome) (int, error) {
	var endSeq uint64
	rec.At = o.now().UnixNano()
	batchNonce := "batch|" + rec.Root
	o.commitMu.Lock()
	if err := o.nonces.Use(batchNonce); err != nil {
		o.commitMu.Unlock()
		return 0, err
	}
	rec.Nonces = append(rec.Nonces, batchNonce)
	credited := 0
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil {
			continue
		}
		if uerr := o.nonces.Use(oc.nonceKey); uerr != nil {
			oc.err = fmt.Errorf("%w: %w", ErrBadRecord, uerr)
			oc.replayed = errors.Is(uerr, auth.ErrReplayed)
			rec.Credits[rec.PeerID] -= oc.rec.Bytes
			if rec.Credits[rec.PeerID] == 0 {
				delete(rec.Credits, rec.PeerID)
			}
			rec.Rejects[rec.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			continue
		}
		rec.Nonces = append(rec.Nonces, oc.nonceKey)
		credited++
	}
	// The delta is built after the nonce pass so the journaled audit
	// counters carry the final (post-replay-demotion) verdicts.
	ev := buildAuditDelta(rec.PeerID, outcomes)
	if o.wal != nil {
		if len(outcomes) > 0 {
			rec.Audit = []walAuditDelta{ev}
		}
		// The uploader's absolute assigned-bytes floor: per-serve wrapper
		// charges are not journaled (hot path), so the settle record carries
		// the running total and replay floors it — the anomaly ratio stays
		// sane across a restart.
		rec.Assigned = map[string]int64{rec.PeerID: o.ledger.row(rec.PeerID).Assigned}
		o.journalAppend(walSettle, rec)
	}
	if o.ledger.settle(rec.PeerID, rec.Credits[rec.PeerID], rec.Rejects[rec.PeerID], ev, true) {
		// Newly suspended as anomalous: pooled maps naming it rebuild.
		o.assignEpoch.Add(1)
		o.metrics.Inc("nocdn.origin.anomaly_suspensions")
		o.journalSuspend(rec.PeerID)
	}
	o.audit.countSettled(outcomes)
	if o.wal != nil {
		// Wait through the last record this commit produced (the settle
		// append plus any suspension record it cascaded into).
		endSeq, _ = o.wal.position()
	}
	o.commitMu.Unlock()
	o.walWait(endSeq)
	o.maybeSnapshot()
	return credited, nil
}

// setKeySecret makes secret the one every short-term key derives from.
func (o *Origin) setKeySecret(secret []byte) {
	o.keySecret = secret
	o.derivers = &sync.Pool{New: func() any { return &keyDeriver{mac: hmac.New(sha256.New, secret)} }}
}

// checkRecord verifies one record of an upload speaking for batchPeer,
// its signature included: leaf is r's LeafBytes, and r.Signature must be
// the key's HMAC over the leaf's signed prefix. It does NOT consume the
// nonce or write credits — both happen under the commit lock in
// commitSettlement, so verification never serializes other committers and
// a snapshot can never observe a nonce ahead of its journal record. v
// carries the HMAC state from the batch's previous record.
func (o *Origin) checkRecord(v *leafVerifier, r UsageRecord, batchPeer string, leaf []byte) error {
	if r.Provider != o.Provider {
		return ErrBadRecord
	}
	if r.PeerID != batchPeer {
		return fmt.Errorf("%w: record peer %.64q in batch from %q", ErrBadRecord, r.PeerID, batchPeer)
	}
	k, ok := parseKeyID(r.KeyID)
	if !ok {
		return fmt.Errorf("%w: %w", ErrBadRecord, auth.ErrUnknownKey)
	}
	if k.PeerID != r.PeerID {
		return fmt.Errorf("%w: key issued for different peer", ErrBadRecord)
	}
	if err := v.verify(o, k, leaf, len(r.Signature)); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	// A single key covers one wrapper build; claiming more bytes than were
	// assigned under it is definitionally inflation.
	if r.Bytes < 0 || r.Bytes > k.MaxBytes {
		return fmt.Errorf("%w: implausible byte count", ErrBadRecord)
	}
	// Expiry is checked last, so ErrExpired means the record is late and
	// nothing else.
	if o.now().UnixNano() > k.Expires {
		return fmt.Errorf("%w: %w", ErrBadRecord, auth.ErrExpired)
	}
	return nil
}

// leafVerifier checks record signatures for one batch. It keeps one
// HMAC-SHA256 state, rebuilt only when a record's key differs from the
// previous record's and reset between records under the same key. A run of
// records under one key allocates only to set the state up — at its first
// record, and at the first reset, where crypto/hmac saves its pad states —
// and nothing after.
type leafVerifier struct {
	keyID string
	mac   hash.Hash
	sum   [sha256.Size]byte
}

// verify reports whether a leaf's last sigLen bytes are the hex HMAC, under
// key k, of the leaf before the '|' that precedes them.
func (v *leafVerifier) verify(o *Origin, k keyRow, leaf []byte, sigLen int) error {
	var want [sha256.Size]byte
	if sigLen != hex.EncodedLen(len(want)) || sigLen >= len(leaf) {
		return auth.ErrBadSignature
	}
	if _, err := hex.Decode(want[:], leaf[len(leaf)-sigLen:]); err != nil {
		return auth.ErrBadSignature
	}
	if v.mac != nil && v.keyID == k.ID {
		v.mac.Reset()
	} else {
		d := o.derivers.Get().(*keyDeriver)
		d.buf = append(d.buf[:0], k.ID...)
		v.mac, v.keyID = hmac.New(sha256.New, d.secret()), k.ID
		o.derivers.Put(d)
	}
	v.mac.Write(leaf[:len(leaf)-sigLen-1])
	if !hmac.Equal(v.mac.Sum(v.sum[:0]), want[:]) {
		return auth.ErrBadSignature
	}
	return nil
}

// ---- health probing ----

// ProbeSample runs one health-probe pass over k registered peers: first
// the peers gossip nominated (ReportGossip), in nomination order, then a
// random sample of the rest. The pass consumes the nominations it probes.
// It is the only thing that moves a breaker on the origin's side: gossip
// points the probe at a peer, the probe decides. k <= 0 probes every
// registered peer, an O(fleet) scan for deployments too small to need
// gossip.
//
// Outcomes and self-reported saturation feed the health registry,
// respecting each peer's breaker (an open one skips the network until its
// cooldown grants a half-open probe). A peer reporting saturation >= 1
// (actively shedding) counts as a failure: new maps route around it until
// it drains. Readmission has hysteresis by construction — it takes the
// breaker's full half-open probe cycle, never a single good poll.
func (o *Origin) ProbeSample(ctx context.Context, k int) {
	if o.health == nil {
		return
	}
	if k <= 0 {
		k = o.registry.count()
	}
	sp := o.tracer.Start("nocdn.origin", "probe_sample")
	sp.SetLabel("k", strconv.Itoa(k))
	defer sp.End()
	for _, p := range o.probePass(k) {
		if !o.health.Allow(p.id) {
			continue // open breaker: wait out the cooldown
		}
		start := time.Now()
		ok, saturation, _ := probeHealth(ctx, o.probeClient, p.url)
		if ok {
			o.health.RecordSuccess(p.id, time.Since(start).Seconds())
			o.health.ReportSaturation(p.id, saturation)
		} else {
			o.health.RecordFailure(p.id)
		}
		o.noteHealthTransition(sp, p.id)
	}
}

// probePass picks one probe pass of up to k peers: the nominated ones
// first, in nomination order, then registry.sample's draw, skipping peers
// already in the pass. The nominations it takes are consumed.
func (o *Origin) probePass(k int) []peerStatic {
	o.probeMu.Lock()
	taken := slices.Clone(o.nominated[:min(k, len(o.nominated))])
	o.nominated = slices.Delete(o.nominated, 0, len(taken))
	for _, id := range taken {
		delete(o.nominatedSet, id)
	}
	o.probeMu.Unlock()
	pass := make([]peerStatic, 0, k)
	inPass := make(map[string]bool, len(taken))
	for _, id := range taken {
		if p, ok := o.registry.get(id); ok {
			pass = append(pass, p)
			inPass[id] = true
		}
	}
	for _, p := range o.registry.sample(k, o.randIntn) {
		if len(pass) == k {
			break
		}
		if !inPass[p.id] {
			pass = append(pass, p)
		}
	}
	return pass
}

// noteHealthTransition compares a peer's current health verdict against the
// last recorded one; on a transition it invalidates wrapper state and
// emits the ejection/readmission metric and span.
func (o *Origin) noteHealthTransition(sp *hpop.Span, peerID string) {
	after := o.health.Healthy(peerID)
	o.probeMu.Lock()
	before, known := o.probeHealthy[peerID]
	if !known {
		before = true
	}
	o.probeHealthy[peerID] = after
	transition := before != after
	o.probeMu.Unlock()
	if !transition {
		return
	}
	o.invalidateWrappers()
	name := "peer_ejected"
	metric := "nocdn.origin.peer_ejections"
	if after {
		name = "peer_readmitted"
		metric = "nocdn.origin.peer_readmissions"
	}
	o.metrics.Inc(metric)
	tsp := sp.Child(name)
	tsp.SetLabel("peer", peerID)
	tsp.End()
}

// ---- delegated health gossip ----

// PeerObservation is one neighbor's health as a gossiping peer saw it.
// Reports from older peers also carry latency and saturation; decoding
// ignores them.
type PeerObservation struct {
	PeerID  string `json:"peerId"`
	Healthy bool   `json:"healthy"`
}

// GossipReport is a peer's upload of neighbor health summaries — the
// delegated share of fleet probing. POST /gossip carries this shape.
type GossipReport struct {
	From         string            `json:"from"`
	Observations []PeerObservation `json:"observations"`
}

// ReportGossip takes one peer's neighbor health report. Nothing
// authenticates a report — anyone can POST one under any From — so it moves
// no breaker and does no I/O: an observation of a registered peer that
// disagrees with the registry's verdict nominates that peer for the next
// probe pass (ProbeSample), which decides. A peer is nominated at most once
// until a pass probes it, so the nominations never outnumber the registered
// peers. Returns how many peers the report newly nominated.
func (o *Origin) ReportGossip(rep GossipReport) int {
	if o.health == nil || len(rep.Observations) == 0 {
		return 0
	}
	sp := o.tracer.Start("nocdn.origin", "gossip_report")
	sp.SetLabel("from", rep.From)
	sp.SetLabel("observations", strconv.Itoa(len(rep.Observations)))
	defer sp.End()
	o.metrics.Inc("nocdn.origin.gossip_reports")

	nominated := 0
	for _, obs := range rep.Observations {
		if obs.Healthy == o.health.Healthy(obs.PeerID) {
			continue
		}
		if _, ok := o.registry.get(obs.PeerID); !ok {
			continue
		}
		o.probeMu.Lock()
		if !o.nominatedSet[obs.PeerID] {
			o.nominatedSet[obs.PeerID] = true
			o.nominated = append(o.nominated, obs.PeerID)
			nominated++
		}
		o.probeMu.Unlock()
	}
	sp.SetLabel("nominated", strconv.Itoa(nominated))
	return nominated
}

// Neighbors returns up to n of a peer's ring successors — the neighbor set
// it should probe and gossip about. Derived from the consistent-hash ring,
// so the fleet's probe graph shifts only ~1/N on membership changes.
func (o *Origin) Neighbors(peerID string, n int) []PeerInfo {
	ids := o.ring.successors("nbr|"+peerID, n, func(id string) bool {
		return id != peerID && !o.ledger.isSuspended(id)
	})
	out := make([]PeerInfo, 0, len(ids))
	for _, id := range ids {
		if p, ok := o.registry.get(id); ok {
			out = append(out, PeerInfo{ID: p.id, URL: p.url, RTTMillis: p.rtt})
		}
	}
	return out
}

// ---- accounting ----

// Accounting summarizes settlement state for one peer.
type Accounting struct {
	PeerID        string `json:"peerId"`
	CreditedBytes int64  `json:"creditedBytes"`
	AssignedBytes int64  `json:"assignedBytes"`
	Rejected      int64  `json:"rejected"`
	Suspended     bool   `json:"suspended"`
}

// AccountingFor returns one peer's ledger row.
func (o *Origin) AccountingFor(peerID string) Accounting {
	row := o.ledger.row(peerID)
	return Accounting{
		PeerID:        peerID,
		CreditedBytes: row.Credited,
		AssignedBytes: row.Assigned,
		Rejected:      row.Rejected,
		Suspended:     row.Suspended,
	}
}

// WrapperBytes returns bytes served as wrapper pages.
func (o *Origin) WrapperBytes() int64 { return o.wrapperBytes.Load() }

// OriginBytes returns bytes served as raw content (peer cache-miss
// backfill plus any client integrity fallbacks).
func (o *Origin) OriginBytes() int64 { return o.originBytes.Load() }

// TotalPageBytes returns the full byte weight of a page (what a CDN-less
// origin would serve per view).
func (o *Origin) TotalPageBytes(page string) (int64, error) {
	o.contentMu.RLock()
	defer o.contentMu.RUnlock()
	p, ok := o.pages[page]
	if !ok {
		return 0, ErrUnknownPage
	}
	total := int64(len(o.objects[p.Container].Data))
	for _, e := range p.Embedded {
		total += int64(len(o.objects[e].Data))
	}
	return total, nil
}

// ---- HTTP surface ----

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
	mux.HandleFunc("/wrapper", func(w http.ResponseWriter, r *http.Request) {
		sp := o.tracer.StartRemote("nocdn.origin", "wrapper", hpop.ExtractTraceparent(r.Header))
		defer sp.End()
		q := r.URL.Query()
		page := q.Get("page")
		client := q.Get("client")
		sp.SetLabel("page", page)
		if client == "" {
			// An anonymous view is its remote host ("" when unparsable).
			client, _, _ = net.SplitHostPort(r.RemoteAddr)
		}
		sp.SetLabel("client", client)
		e, err := o.assignEntry(page, client)
		if err != nil {
			sp.SetError(err)
			status := http.StatusNotFound
			if errors.Is(err, ErrNoPeers) {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		o.wrapperBytes.Add(int64(len(e.body)))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
		w.Write(e.body)
	})
	mux.HandleFunc("/content/", func(w http.ResponseWriter, r *http.Request) {
		sp := o.tracer.StartRemote("nocdn.origin", "serve_content", hpop.ExtractTraceparent(r.Header))
		defer sp.End()
		path := strings.TrimPrefix(r.URL.Path, "/content")
		sp.SetLabel("path", path)
		o.contentMu.RLock()
		obj, ok := o.objects[path]
		var overrides http.Header
		if h := o.objHeaders[path]; h != nil {
			overrides = h.Clone()
		}
		o.contentMu.RUnlock()
		if !ok {
			sp.SetError(ErrUnknownObject)
			http.Error(w, "unknown object", http.StatusNotFound)
			return
		}
		// The strong validator is the object's integrity hash itself, so a
		// 304 is exactly the hash-epoch check over plain HTTP.
		etag := `"` + obj.Hash + `"`
		hdr := w.Header()
		hdr.Set("ETag", etag)
		hdr.Set(ExpectHashHeader, obj.Hash)
		if obj.ContentType != "" {
			hdr.Set("Content-Type", obj.ContentType)
		}
		if o.ObjectMaxAge >= 0 {
			hdr.Set("Cache-Control", FormatCacheControl(o.ObjectMaxAge, o.StaleWhileRevalidate, o.StaleIfError))
		}
		for name, vals := range overrides {
			hdr.Del(name)
			for _, v := range vals {
				hdr.Add(name, v)
			}
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		o.originBytes.Add(int64(len(obj.Data)))
		// Declared, so a peer's fill and a loader's fallback read into an
		// exact-size slice (net/http would chunk a body this large).
		hdr.Set("Content-Length", strconv.Itoa(len(obj.Data)))
		w.Write(obj.Data)
	})
	mux.HandleFunc("/usage/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, ok := readUpload(w, r, maxBatchBody)
		if !ok {
			return
		}
		batch, leaves, err := decodeBatch(body)
		if errors.Is(err, errLegacyBatch) {
			// Not 400: that would tell an old peer its records are settled.
			http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if batch.Root == "" {
			http.Error(w, "nocdn: batch root required", http.StatusBadRequest)
			return
		}
		n, err := o.settle(hpop.ExtractTraceparent(r.Header), batch, leaves)
		if errors.Is(err, ErrBadBatch) {
			// 400: the batch is settled from the peer's perspective (it must
			// not retry a refused or replayed commitment).
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Committed: any rejected records are counted in the ledger row.
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"credited":%d,"submitted":%d}`, n, len(batch.Records))
	})
	mux.HandleFunc("/gossip", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var rep GossipReport
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		nominated := o.ReportGossip(rep)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"nominated":%d}`, nominated)
	})
	mux.HandleFunc("/neighbors", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			http.Error(w, "peer required", http.StatusBadRequest)
			return
		}
		n := 3
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 && parsed <= 32 {
				n = parsed
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.Neighbors(peer, n))
	})
	mux.HandleFunc("/accounting", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			http.Error(w, "peer required", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.AccountingFor(peer))
	})
	mux.HandleFunc("/telemetry/batch", o.fleet.BatchHandler())
	mux.HandleFunc("/debug/wal", o.WALHandler())
	mux.HandleFunc("/debug/fleet", o.fleet.Handler())
	mux.HandleFunc("/debug/slo", o.slo.Handler())
	mux.HandleFunc("/debug/audit", o.audit.Handler())
	mux.HandleFunc("/debug/health", o.health.Handler())
	return mux
}
