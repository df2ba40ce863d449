package nocdn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
)

// DefaultPeerFetchTimeout bounds the peer's outbound requests (origin
// backfill and record uploads), so one stalled origin cannot pin every
// proxy goroutine.
const DefaultPeerFetchTimeout = 10 * time.Second

// DefaultMaxInflight caps simultaneous proxy requests per peer. A home
// uplink saturates long before a data center's would; shedding the excess
// with 503 + Retry-After keeps the requests the peer does accept fast and
// lets loaders fail over to replicas instead of queueing behind a melted
// box.
const DefaultMaxInflight = 256

// Peer is the HPoP-resident NoCDN edge: "a normal reverse proxy ... the
// peer serves the requested object from its cache if available or, if not,
// obtains the object from the origin server, forwards it to the user, and
// caches it locally for future requests", with virtual hosting so one peer
// can "sign up for content delivery with multiple content providers".
//
// The data plane is built for concurrent clients: the cache is sharded by
// key hash, counters are atomic, and cache misses are coalesced so N
// simultaneous requests for an uncached object cost one origin fetch.
type Peer struct {
	// ID is the peer's identity with providers.
	ID string

	// providersMu guards the virtual-hosting table only; lookups on the
	// serving hot path take the read lock.
	providersMu sync.RWMutex
	// providers maps provider name -> origin base URL (virtual hosting).
	providers map[string]string

	cache  *shardedLRU
	flight flightGroup

	// varyMu guards vary, the per-base-key Vary specs learned from origin
	// responses (an object's own metadata lives on its cache entry).
	varyMu sync.RWMutex
	vary   map[string][]string
	// revalInflight dedups background stale-while-revalidate refreshes so a
	// hot stale key triggers one revalidation, not one per request.
	revalInflight sync.Map

	// store is the optional disk tier (two-tier cache). Attached once via
	// AttachDiskCache; an atomic pointer so serving, scrubbing, and late
	// attachment never race. Nil means memory-only.
	store atomic.Pointer[segmentStore]
	// closedIndex is the index CloseDiskCache dropped, whose metadata the
	// next AttachDiskCache hands back (adoptMeta); a restart has none.
	closedIndex atomic.Pointer[map[string]segEntry]

	// The background loops (loop.go), which OpenPeer starts and Close stops:
	// segment scrubber, neighbour gossip and fleet telemetry.
	scrubLoop, gossipLoop, telemetryLoop loop

	// FlushBackoff shapes each origin's gate delay between failed uploads
	// (the zero value applies the faults package defaults). Set before serving.
	FlushBackoff faults.Policy

	// metrics receives nocdn.peer.* counters and the cache hit/miss
	// latency-split histograms when set.
	metrics *hpop.Metrics
	// tracer records flush-cycle spans when set.
	tracer *hpop.Tracer
	// nowFn is injectable for backoff tests.
	nowFn func() time.Time

	// reporter is the attached fleet-telemetry delta reporter (atomic so the
	// serving hot path can charge hot keys without a lock).
	reporter atomic.Pointer[hpop.TelemetryReporter]

	// stats
	hits, misses, servedBytes atomic.Int64
	// Tier split: hits = memHits + diskHits. Disk hits include both
	// promoted reads and streams off the segment files.
	memHits, diskHits atomic.Int64
	// originFetches counts the requests that asked the origin for a body
	// (originGet); with miss coalescing it can be far below misses under
	// concurrent load.
	originFetches atomic.Int64

	// Admission control: inflight proxy requests versus the cap, and how
	// many requests were shed at the door.
	inflight    atomic.Int64
	maxInflight atomic.Int64
	shed        atomic.Int64

	httpClient *http.Client

	recordLane
}

// newPeerTransport builds the tuned upstream transport: a deep idle pool
// per origin so backfill bursts reuse persistent connections instead of
// paying a TCP+TLS handshake per miss. One transport per peer for its whole
// life — nothing on the request path ever rebuilds it.
func newPeerTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NewPeer creates a peer with the given memory cache capacity in bytes.
func NewPeer(id string, cacheBytes int) *Peer {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	return &Peer{
		ID:         id,
		providers:  make(map[string]string),
		cache:      newShardedLRU(cacheBytes),
		vary:       make(map[string][]string),
		httpClient: &http.Client{Timeout: DefaultPeerFetchTimeout, Transport: newPeerTransport()},
		recordLane: recordLane{lanes: make(map[string]*lane), maxPending: DefaultMaxPendingRecords},
	}
}

// AttachDiskCache adds the warm tier: an append-only segment store under
// dir. Objects evicted from the memory LRU spill there; disk hits are
// hash-verified and promoted back (or streamed when they don't
// fit a memory shard). maxBytes caps the tier's disk footprint and
// segBytes the per-segment rotation size (<= 0 picks the defaults).
// Without this call the peer caches in memory only.
func (p *Peer) AttachDiskCache(dir string, maxBytes, segBytes int64) error {
	st, err := openSegmentStore(dir, maxBytes, segBytes)
	if err != nil {
		return err
	}
	if p.metrics != nil {
		st.setMetrics(p.metrics)
	}
	if old := p.closedIndex.Swap(nil); old != nil {
		st.adoptMeta(*old)
	}
	p.store.Store(st)
	return nil
}

// CloseDiskCache detaches and closes the disk tier (tests, shutdown).
func (p *Peer) CloseDiskCache() {
	p.scrubLoop.halt()
	if st := p.store.Swap(nil); st != nil {
		index := st.close()
		p.closedIndex.Store(&index)
	}
}

// DiskCacheStats reports the disk tier's footprint (zeros when detached).
func (p *Peer) DiskCacheStats() (entries int, bytes int64, segments int) {
	if st := p.store.Load(); st != nil {
		return st.stats()
	}
	return 0, 0, 0
}

// TierStats splits cache hits by serving tier.
func (p *Peer) TierStats() (memHits, diskHits, misses int64) {
	return p.memHits.Load(), p.diskHits.Load(), p.misses.Load()
}

// ScrubCache runs one at-rest verification pass over the segment store,
// quarantining any entry whose bytes no longer match their indexed SHA-256
// (the PR 5 Scrubber pattern applied to the peer's disk tier). Returns how
// many entries were checked and quarantined; a no-op without a disk tier.
func (p *Peer) ScrubCache() (checked, quarantined int) {
	if st := p.store.Load(); st != nil {
		return st.scrub()
	}
	return 0, 0
}

// DefaultCacheScrubInterval paces the background segment scrubber.
const DefaultCacheScrubInterval = time.Hour

// startCacheScrub launches the background segment scrubber (<= 0 interval
// means DefaultCacheScrubInterval). Restarting replaces the previous loop.
func (p *Peer) startCacheScrub(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultCacheScrubInterval
	}
	p.scrubLoop.start(interval, func(context.Context) { p.ScrubCache() })
}

// SetHTTPClient overrides the outbound client (tests, chaos harnesses).
func (p *Peer) SetHTTPClient(c *http.Client) { p.httpClient = c }

// SetMetrics wires a metrics registry for nocdn.peer.* counters (and the
// nocdn.cache.* / nocdn.scrub.* families once a disk tier is attached).
func (p *Peer) SetMetrics(m *hpop.Metrics) {
	p.metrics = m
	if st := p.store.Load(); st != nil {
		st.setMetrics(m)
	}
}

// SetTracer wires a tracer for flush-cycle spans.
func (p *Peer) SetTracer(t *hpop.Tracer) { p.tracer = t }

// SetClock injects a time source (backoff tests).
func (p *Peer) SetClock(now func() time.Time) { p.nowFn = now }

// SetMaxInflight caps simultaneous proxy requests (<= 0 restores the
// default).
func (p *Peer) SetMaxInflight(n int) { p.maxInflight.Store(int64(n)) }

// maxInflightCap returns the effective admission cap.
func (p *Peer) maxInflightCap() int64 {
	if n := p.maxInflight.Load(); n > 0 {
		return n
	}
	return DefaultMaxInflight
}

// ShedRequests returns how many proxy requests admission control refused.
func (p *Peer) ShedRequests() int64 { return p.shed.Load() }

// Saturation returns inflight/capacity at this instant (>= 1 while the peer
// is shedding).
func (p *Peer) Saturation() float64 {
	return float64(p.inflight.Load()) / float64(p.maxInflightCap())
}

func (p *Peer) now() time.Time {
	if p.nowFn != nil {
		return p.nowFn()
	}
	return time.Now()
}

// SignUp registers this peer to serve content for a provider whose origin
// lives at originURL.
func (p *Peer) SignUp(provider, originURL string) {
	p.providersMu.Lock()
	defer p.providersMu.Unlock()
	p.providers[provider] = strings.TrimSuffix(originURL, "/")
}

// originOf returns the origin URL SignUp registered for provider.
func (p *Peer) originOf(provider string) (string, bool) {
	p.providersMu.RLock()
	defer p.providersMu.RUnlock()
	origin, ok := p.providers[provider]
	return origin, ok
}

// Stats reports cache effectiveness and volume served.
func (p *Peer) Stats() (hits, misses, servedBytes int64) {
	return p.hits.Load(), p.misses.Load(), p.servedBytes.Load()
}

// OriginFetches returns how many requests asked the origin for a body:
// backfills (misses minus coalesced waiters) and the revalidations it did
// not answer 304, failed ones included.
func (p *Peer) OriginFetches() int64 { return p.originFetches.Load() }

// cacheTier identifies which layer satisfied a fetch.
type cacheTier uint8

const (
	// tierOrigin: both cache tiers missed; the bytes came from a backfill.
	tierOrigin cacheTier = iota
	// tierMem: served from the in-memory LRU.
	tierMem
	// tierDisk: found in the segment store, hash-verified and promoted to
	// the memory tier (the returned slice is the promoted copy).
	tierDisk
	// tierDiskStream: found in the segment store but larger than a memory
	// shard; cacheGet returns no data and the serve streams it off the
	// segment file (streamOutcome).
	tierDiskStream
)

func (t cacheTier) label() string { return t.series().label }

// tierSeries is a tier's label and the names of its nocdn.cache series,
// spelled out so that counting a serve builds no string.
type tierSeries struct{ label, hits, hitSeconds, bytes string }

var (
	memSeries    = tierSeries{"mem", "nocdn.cache.hits.mem", "nocdn.cache.hit_seconds.mem", "nocdn.cache.bytes.mem"}
	diskSeries   = tierSeries{"disk", "nocdn.cache.hits.disk", "nocdn.cache.hit_seconds.disk", "nocdn.cache.bytes.disk"}
	originSeries = tierSeries{"origin", "nocdn.cache.hits.origin", "nocdn.cache.hit_seconds.origin", "nocdn.cache.bytes.origin"}
)

func (t cacheTier) series() *tierSeries {
	switch t {
	case tierMem:
		return &memSeries
	case tierDisk, tierDiskStream:
		return &diskSeries
	default:
		return &originSeries
	}
}

// cachePut fills the memory tier with data and its metadata, and spills what
// that evicts (bytes, sum and metadata: no hashing again) into the disk tier
// outside the shard locks. sum is data's SHA-256, which every caller already
// holds. Objects too large for a memory shard go straight to disk (the memory
// LRU would reject them), so Internet@home-scale blobs are still cacheable
// on the appliance's disk.
func (p *Peer) cachePut(key string, data []byte, sum [sha256.Size]byte, meta *entryMeta) {
	st := p.store.Load()
	if len(data) > p.cache.maxObjectBytes() {
		if st != nil {
			st.put(key, data, sum, meta)
		}
		return
	}
	evicted := p.cache.put(key, data, sum, meta)
	if st == nil {
		return
	}
	for _, e := range evicted {
		st.put(e.key, e.data, e.sum, e.meta)
	}
}

// maxOriginBody caps one origin /content response on the fill path — the
// default size of the whole disk tier — so a lying Content-Length cannot
// make a home box allocate without bound.
const maxOriginBody = DefaultDiskCacheBytes

// Handler returns the peer's HTTP surface:
//
//	GET  /proxy/PROVIDER/PATH   (Range supported)  -> content
//	GET  /proxy/PROVIDER?o=PATH&h=HASH&...         -> a bundle of whole objects (bundle.go)
//	POST /record   (body: one record's leaf)       -> client drops a usage record
//	GET  /flush?origin=URL                         -> upload the records of the providers signed up at URL
//	GET  /health                                   -> saturation/queue self-report
func (p *Peer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/proxy/", p.handleProxy)
	mux.HandleFunc("/record", p.handleRecord)
	mux.HandleFunc("/flush", p.handleFlush)
	mux.HandleFunc("/health", p.handleHealth)
	return mux
}

// PeerHealthReport is the GET /health self-report origins poll: how loaded
// the peer is right now and how its record queue is doing. Saturation >= 1
// means admission control is actively shedding.
type PeerHealthReport struct {
	PeerID         string  `json:"peerId"`
	Inflight       int64   `json:"inflight"`
	MaxInflight    int64   `json:"maxInflight"`
	Saturation     float64 `json:"saturation"`
	Shed           int64   `json:"shed"`
	PendingRecords int     `json:"pendingRecords"`
	DroppedRecords int64   `json:"droppedRecords"`
}

func (p *Peer) handleHealth(w http.ResponseWriter, r *http.Request) {
	rep := PeerHealthReport{
		PeerID:         p.ID,
		Inflight:       p.inflight.Load(),
		MaxInflight:    p.maxInflightCap(),
		Saturation:     p.Saturation(),
		Shed:           p.shed.Load(),
		PendingRecords: p.PendingRecords(),
		DroppedRecords: p.droppedRecords.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// probeHealth is the client side of GET /health, shared by the origin's
// probes and a peer's neighbour gossip. ok is the verdict: a 200 whose
// report says saturation < 1, or whose body does not parse (older peers
// without the report shape). err is set only when nothing answered.
func probeHealth(ctx context.Context, c *http.Client, peerURL string) (ok bool, saturation float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/health", nil)
	if err != nil {
		return false, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, 0, nil
	}
	var rep PeerHealthReport
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&rep) != nil {
		return true, 0, nil
	}
	return rep.Saturation < 1, rep.Saturation, nil
}

// callOrigin is the one request a peer makes of an origin's control
// surface: method on origin (a URL, its trailing '/' trimmed as SignUp
// stores it) joined with target, a path and query. A body goes up as JSON;
// sp's trace position rides the request, so the origin's span parents under
// the peer's cycle; the round trip runs under pprof labels naming the path.
// A 2xx answer is decoded into out (when non-nil) through a 1 MiB limit,
// any other answer is drained through 4 KiB, and the body is closed. status
// is 0 when nothing answered; the verdict on any other status is the
// caller's.
func (p *Peer) callOrigin(ctx context.Context, sp *hpop.Span, origin, method, target string, body []byte, out any) (status int, err error) {
	path, _, _ := strings.Cut(target, "?")
	pprof.Do(ctx, pprof.Labels("service", "nocdn.peer", "span", path), func(ctx context.Context) {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		var req *http.Request
		if req, err = http.NewRequestWithContext(ctx, method, strings.TrimSuffix(origin, "/")+target, rdr); err != nil {
			return
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		hpop.InjectTraceparent(req.Header, sp)
		var resp *http.Response
		if resp, err = p.httpClient.Do(req); err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		if status/100 == 2 && out != nil {
			err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	})
	return status, err
}

func (p *Peer) handleProxy(w http.ResponseWriter, r *http.Request) {
	// Admission control first: a saturated home box sheds excess load with
	// 503 + Retry-After instead of queueing every comer into a meltdown.
	// The shed count and live saturation gauge feed the self-healing loop
	// via /health and /metrics.
	if p.inflight.Add(1) > p.maxInflightCap() {
		p.inflight.Add(-1)
		p.shed.Add(1)
		p.metrics.Inc("nocdn.peer.shed")
		p.metrics.Set("nocdn.peer.saturation", p.Saturation())
		w.Header().Set("Retry-After", "1")
		http.Error(w, "peer overloaded", http.StatusServiceUnavailable)
		return
	}
	defer p.inflight.Add(-1)
	p.metrics.Set("nocdn.peer.saturation", p.Saturation())
	rest := strings.TrimPrefix(r.URL.Path, "/proxy/")
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		p.serveBundle(w, r, rest)
		return
	}
	provider, path := rest[:slash], rest[slash:]
	// Continue the loader's trace when it sent a traceparent; a missing or
	// corrupted header degrades to a fresh root span.
	sp := p.tracer.StartRemote("nocdn.peer", "proxy", hpop.ExtractTraceparent(r.Header))
	sp.SetLabel("peer", p.ID)
	sp.SetLabel("provider", provider)
	sp.SetLabel("path", path)
	defer sp.End()
	// The full caching state machine (peercache.go): freshness versus hash
	// epoch, conditional revalidation, serve-stale windows.
	s := p.newServe(r, provider, path, r.Header.Get(ExpectHashHeader))
	p.lookup(&s)
	p.finish(&s, r, nil)
	hit := s.err == nil && s.out.xcache != XCacheMiss
	sp.SetLabel("cache", map[bool]string{true: "hit", false: "miss"}[hit])
	sp.SetLabel("tier", s.out.tier.label())
	if s.out.xcache != "" {
		sp.SetLabel("xcache", s.out.xcache)
	}
	switch {
	case s.err != nil:
		sp.SetError(s.err)
		http.Error(w, s.err.Error(), http.StatusBadGateway)
	case s.win != nil:
		p.writeStream(w, r, path, s.out, s.win)
	default:
		p.writeOutcome(w, r, s.out)
	}
}

// countingResponseWriter counts bytes written so streamed serves still
// feed the servedBytes ledger. It forwards ReadFrom when the underlying
// writer supports it, so ServeContent's io.Copy uses net/http's pooled copy
// buffer. (Not sendfile: that needs the source to be an *os.File, and a
// verified window of one is not.)
type countingResponseWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponseWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingResponseWriter) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := c.ResponseWriter.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(src)
		c.n += n
		return n, err
	}
	n, err := io.Copy(struct{ io.Writer }{c.ResponseWriter}, src)
	c.n += n
	return n, err
}

// parseRange parses a single "bytes=a-b" range against size, returning
// [start, end).
func parseRange(h string, size int) (start, end int, ok bool) {
	h = strings.TrimPrefix(h, "bytes=")
	parts := strings.SplitN(h, "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	s, err := strconv.Atoi(parts[0])
	if err != nil || s < 0 || s >= size {
		return 0, 0, false
	}
	e := size - 1
	if parts[1] != "" {
		e, err = strconv.Atoi(parts[1])
		if err != nil || e < s {
			return 0, 0, false
		}
		if e >= size {
			e = size - 1
		}
	}
	return s, e + 1, true
}
