package nocdn

// The stateful half of the peer's HTTP caching semantics: per-entry
// freshness metadata held by the entry in either cache tier, conditional
// revalidation against the origin, stale-while-revalidate /
// stale-if-error serving, Vary keying, and the X-Cache / Age headers that
// make cache state observable from outside. See httpcache.go for the
// directive parser and the hash-epoch freshness rule this implements.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpop/internal/hpop"
)

// entryMeta is one cache entry's HTTP metadata, captured from the origin
// response that filled it and replayed on every serve (the no-manipulation
// property covers headers, not just bytes). It moves with its bytes between
// the tiers (lruEntry, segEntry) and is immutable once published: a 304
// installs a new copy (refresh), so readers never race writers.
type entryMeta struct {
	contentType string
	etag        string
	hash        string // hex SHA-256 of the body — the wrapper's integrity unit
	ccRaw       string // raw Cache-Control value, replayed verbatim
	cc          CacheControl
	expires     time.Time // Expires fallback when Cache-Control has no TTL
	fetchedAt   time.Time
	// recovered marks metadata reconstructed from the disk index after a
	// restart: the hash is trustworthy (it is the at-rest checksum) but the
	// origin's header set is unknown, so the first serve revalidates.
	recovered bool
}

// metaFromHeaders captures an origin response's caching metadata. bodyHash
// is the hex SHA-256 of the (already read) body.
func metaFromHeaders(h http.Header, bodyHash string, now time.Time) *entryMeta {
	m := &entryMeta{
		contentType: h.Get("Content-Type"),
		etag:        h.Get("ETag"),
		hash:        bodyHash,
		ccRaw:       h.Get("Cache-Control"),
		fetchedAt:   now,
	}
	if m.etag == "" {
		m.etag = `"` + bodyHash + `"`
	}
	m.cc = ParseCacheControl(m.ccRaw)
	if exp := h.Get("Expires"); exp != "" {
		if t, err := http.ParseTime(exp); err == nil {
			m.expires = t
		}
	}
	return m
}

// refreshed returns a copy of m revalidated at now, folding in any headers
// the 304 carried (RFC 7234 lets a 304 update stored metadata).
func (m *entryMeta) refreshed(h http.Header, now time.Time) *entryMeta {
	nm := *m
	nm.fetchedAt = now
	nm.recovered = false
	if ct := h.Get("Content-Type"); ct != "" {
		nm.contentType = ct
	}
	if cc := h.Get("Cache-Control"); cc != "" {
		nm.ccRaw = cc
		nm.cc = ParseCacheControl(cc)
	}
	if et := h.Get("ETag"); et != "" {
		nm.etag = et
	}
	if exp := h.Get("Expires"); exp != "" {
		if t, err := http.ParseTime(exp); err == nil {
			nm.expires = t
		}
	}
	return &nm
}

// ttl resolves the entry's freshness lifetime: Cache-Control (s-maxage
// over max-age) first, the Expires header as fallback. ok is false when
// the origin supplied no freshness information at all.
func (m *entryMeta) ttl() (time.Duration, bool) {
	if d, ok := m.cc.TTL(); ok {
		return d, true
	}
	if !m.expires.IsZero() {
		d := m.expires.Sub(m.fetchedAt)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// fresh reports whether the entry may be served without revalidation at
// the given age. An origin that sent no freshness information gets the
// pre-CDN-semantics behavior: cached forever (heuristic freshness — the
// wrapper hash still protects loaders).
func (m *entryMeta) fresh(age time.Duration) bool {
	ttl, ok := m.ttl()
	if !ok {
		return true
	}
	return age <= ttl
}

// withinSWR reports whether an expired entry is inside its
// stale-while-revalidate window.
func (m *entryMeta) withinSWR(age time.Duration) bool {
	ttl, ok := m.ttl()
	return ok && m.cc.HasSWR && age <= ttl+m.cc.StaleWhileRevalidate
}

// withinSIE reports whether an expired entry is inside its stale-if-error
// window.
func (m *entryMeta) withinSIE(age time.Duration) bool {
	ttl, ok := m.ttl()
	return ok && m.cc.HasSIE && age <= ttl+m.cc.StaleIfError
}

// applyHeaders replays the entry's captured origin headers on a serve.
func (m *entryMeta) applyHeaders(h http.Header) {
	if m.contentType != "" {
		h.Set("Content-Type", m.contentType)
	}
	if m.etag != "" {
		h.Set("ETag", m.etag)
	}
	if m.ccRaw != "" {
		h.Set("Cache-Control", m.ccRaw)
	}
	if !m.expires.IsZero() {
		h.Set("Expires", m.expires.UTC().Format(http.TimeFormat))
	}
	if m.hash != "" {
		h.Set(ExpectHashHeader, m.hash)
	}
}

// serveDecision is what the semantic layer decided to do with a request
// that found a cache entry.
type serveDecision int

const (
	// decHit: fresh — serve as-is.
	decHit serveDecision = iota
	// decStaleEpoch: expired by wall clock but hash-epoch fresh (the
	// loader's expected hash matches) — serve as STALE, no revalidation
	// needed: the hash proves the bytes are current.
	decStaleEpoch
	// decStaleSWR: expired, inside stale-while-revalidate — serve STALE
	// now and revalidate in the background.
	decStaleSWR
	// decRevalidate: expired (or no-cache, or recovered without headers) —
	// confirm with the origin before serving.
	decRevalidate
	// decRefetch: unusable for this request (the loader's expected hash
	// does not match) — full refetch; never serve these bytes, stale
	// windows notwithstanding.
	decRefetch
)

// decide classifies a cache entry against one request. expectHash is the
// loader's wrapper hash for the object ("" for plain HTTP clients); age is
// the entry's age at serve time.
func decide(m *entryMeta, expectHash string, age time.Duration) serveDecision {
	if expectHash != "" {
		// Hash-epoch rule: the wrapper is the freshness authority for
		// loaders. Match: fresh at any age. Mismatch: the wrapper moved on —
		// the entry is not just stale but wrong, so refetch unconditionally.
		if m.hash == expectHash {
			if !m.cc.NoCache && m.fresh(age) && !m.recovered {
				return decHit
			}
			return decStaleEpoch
		}
		return decRefetch
	}
	if m.recovered || m.cc.NoCache {
		return decRevalidate
	}
	if m.fresh(age) {
		return decHit
	}
	if m.withinSWR(age) {
		return decStaleSWR
	}
	return decRevalidate
}

// ---- Vary ----

// varyNamesFor returns the header names the origin declared in Vary for
// this base key (provider|path), recorded from its responses.
func (p *Peer) varyNamesFor(base string) []string {
	p.varyMu.RLock()
	defer p.varyMu.RUnlock()
	return p.vary[base]
}

// setVaryNames records base's Vary header-name list.
func (p *Peer) setVaryNames(base string, names []string) {
	p.varyMu.Lock()
	defer p.varyMu.Unlock()
	if len(names) == 0 {
		delete(p.vary, base)
		return
	}
	p.vary[base] = names
}

// parseVaryNames canonicalizes a Vary header value into a sorted,
// lower-cased name list. "*" means uncacheable-per-request; it is kept as
// a name so varyKey makes every request its own key.
func parseVaryNames(v string) []string {
	var names []string
	for _, part := range strings.Split(v, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		if part != "" {
			names = append(names, part)
		}
	}
	sort.Strings(names)
	return names
}

// varyKey derives the secondary cache key for a request from the recorded
// Vary names: the base key plus each varying header's request value.
func varyKey(base string, names []string, reqHdr http.Header) string {
	if len(names) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("|vary")
	for _, name := range names {
		b.WriteByte('|')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(reqHdr.Get(name))
	}
	return b.String()
}

// ---- cache lookup / fill ----

// cacheGet resolves key to its bytes and metadata in the memory or disk
// tier without ever contacting the origin. A disk hit small enough for the
// memory tier is verified and promoted; a larger one reports tierDiskStream
// with no data (the caller streams it straight off the segment file). No
// hit/miss counters move here — the serve path counts once per request
// after it knows how the request was satisfied.
func (p *Peer) cacheGet(key string) (data []byte, m *entryMeta, tier cacheTier, ok bool) {
	if data, m, ok := p.cache.get(key); ok {
		return data, m, tierMem, true
	}
	st := p.store.Load()
	if st == nil {
		return nil, nil, tierOrigin, false
	}
	e, seg, found := st.get(key)
	if !found {
		return nil, nil, tierOrigin, false
	}
	if e.meta == nil {
		// Recovered after a restart: the at-rest checksum gives the hash and
		// the ETag our origin derives from it; the headers are gone.
		hash := hex.EncodeToString(e.sum[:])
		e.meta = &entryMeta{hash: hash, etag: `"` + hash + `"`, fetchedAt: p.now(), recovered: true}
		st.refresh(key, nil, e.meta)
	}
	if e.n > int64(p.cache.maxObjectBytes()) {
		seg.release()
		return nil, e.meta, tierDiskStream, true
	}
	promoted, err := st.readVerify(key, e, seg)
	seg.release()
	if err != nil {
		// Corrupt at rest: readVerify quarantined the entry; the caller
		// sees a clean miss and refetches — corrupt bytes are never served.
		return nil, nil, tierOrigin, false
	}
	p.cachePut(key, promoted, e.sum, e.meta)
	p.metrics.Inc("nocdn.cache.promotions")
	return promoted, e.meta, tierDisk, true
}

// originGet is the one function that asks the origin for /content and the
// one that reads its 200 into the cache. A backfill passes old == nil; a
// revalidation passes the entry it is confirming, sent as If-None-Match: a
// 304 refreshes that entry's metadata (notModified true, data nil), a 200
// replaces the entry, anything else is an error the caller may absorb with
// stale-if-error. Vary-named request headers are forwarded so the origin
// sees what the variant key encodes. A 200 costs one exact-size allocation —
// the slice the cache keeps — and one hash, shared by the metadata and the
// disk tier; its Vary is recorded; and a no-store response is served but
// never stored, evicting whatever the key held so a cached copy cannot
// outlive the policy change.
//
// originFetches counts every request that asked for a body — all but the
// 304s — whether or not one arrived: the backfill's rule. (Revalidations
// used to count only their 200s, so an origin failing them looked idle.)
func (p *Peer) originGet(origin, base, key, path string, old *entryMeta, reqHdr http.Header) (data []byte, m *entryMeta, notModified bool, err error) {
	req, err := http.NewRequest(http.MethodGet, origin+"/content"+escapePath(path), nil)
	if err != nil {
		return nil, nil, false, fmt.Errorf("nocdn: origin fetch: %w", err)
	}
	if old != nil {
		p.metrics.Inc("nocdn.peer.revalidations")
		if old.etag != "" {
			req.Header.Set("If-None-Match", old.etag)
		}
	}
	for _, name := range p.varyNamesFor(base) {
		if v := reqHdr.Get(name); v != "" {
			req.Header.Set(name, v)
		}
	}
	resp, err := p.httpClient.Do(req)
	notModified = err == nil && old != nil && resp.StatusCode == http.StatusNotModified
	if !notModified {
		p.originFetches.Add(1)
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("nocdn: origin fetch: %w", err)
	}
	defer resp.Body.Close()
	if notModified {
		m = old.refreshed(resp.Header, p.now())
		p.cache.refresh(key, old, m)
		if st := p.store.Load(); st != nil {
			st.refresh(key, old, m)
		}
		return nil, m, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, false, fmt.Errorf("nocdn: origin status %d for %s", resp.StatusCode, path)
	}
	data, err = readBody(resp.Body, nil, resp.ContentLength, maxOriginBody)
	if err != nil {
		return nil, nil, false, fmt.Errorf("nocdn: origin fetch: %w", err)
	}
	sum := sha256.Sum256(data)
	m = metaFromHeaders(resp.Header, hex.EncodeToString(sum[:]), p.now())
	if vary := resp.Header.Get("Vary"); vary != "" {
		p.setVaryNames(base, parseVaryNames(vary))
	}
	if m.cc.NoStore {
		// Invalidation, not quarantine; m reaches this serve's outcome only.
		p.cache.remove(key)
		if st := p.store.Load(); st != nil {
			st.remove(key)
		}
	} else {
		p.cachePut(key, data, sum, m)
	}
	return data, m, false, nil
}

// revalidateAsync kicks one background revalidation for key (the
// stale-while-revalidate contract: the stale serve returns immediately,
// the refresh happens off the request path). At most one revalidation per
// key runs at a time.
func (p *Peer) revalidateAsync(origin, base, key, path string, old *entryMeta, reqHdr http.Header) {
	if _, loaded := p.revalInflight.LoadOrStore(key, struct{}{}); loaded {
		return
	}
	hdr := reqHdr.Clone() // the request's own map is not ours once the serve returns
	go func() {
		defer p.revalInflight.Delete(key)
		if _, _, _, err := p.originGet(origin, base, key, path, old, hdr); err != nil {
			p.metrics.Inc("nocdn.peer.revalidation_errors")
		}
	}()
}

// ---- the semantic serve path ----

// serveOutcome is everything handleProxy needs to finish one request:
// the variant key it resolved to, the body (nil for tierDiskStream — stream
// off the segment file), its metadata, the X-Cache verdict, and the Age to
// report.
type serveOutcome struct {
	key    string
	data   []byte
	meta   *entryMeta
	tier   cacheTier
	xcache string
	age    time.Duration
}

// objectServe is one object's way through the peer: a single GET's, or one
// item's of a bundle. lookup and finish run the full caching state machine
// and its bookkeeping; only writing the answer differs between the two.
type objectServe struct {
	origin, provider, path string
	// base is the object's cache key before Vary, provider|path, built once
	// per serve.
	base string
	// expect is the loader's wrapper hash for the object ("" for plain HTTP
	// clients); hdr supplies the Vary-named headers.
	expect string
	signed bool
	hdr    http.Header
	start  time.Time
	out    serveOutcome
	err    error
	// fill marks a serve the cache could not answer alone: finish asks the
	// origin.
	fill bool
	// win is the verified, pinned span of a disk-tier entry too large for
	// the memory tier, which the answer streams in place of out.data.
	win *streamWindow
}

// size is the length of the body s resolved.
func (s *objectServe) size() int64 {
	if s.win != nil {
		return s.win.hi - s.win.lo
	}
	return int64(len(s.out.data))
}

// newServe starts a serve of path for provider, as the request r asks.
func (p *Peer) newServe(r *http.Request, provider, path, expect string) objectServe {
	origin, signed := p.originOf(provider)
	return objectServe{origin: origin, provider: provider, path: path, base: provider + "|" + path,
		expect: expect, signed: signed, hdr: r.Header, start: time.Now()}
}

// lookup is the part of a serve that never waits on the origin (serveCached).
// It reports whether finish has more to do than bookkeeping: an origin leg,
// or a disk-tier entry to verify for streaming.
func (p *Peer) lookup(s *objectServe) bool {
	if !s.signed {
		s.err = fmt.Errorf("nocdn: peer %s not signed up for %s", p.ID, s.provider)
		return false
	}
	var ok bool
	s.out, ok = p.serveCached(s)
	s.fill = !ok
	return s.fill || s.out.data == nil
}

// finish completes a serve lookup started. The origin leg runs when the
// cache could not answer (under sp, when given, as an origin_fill span
// naming the path); then the per-request counters — the tier-labelled
// hit/miss latency split: memory hits in the microsecond buckets, disk hits
// one verified read, misses the origin round trip — and the hot-key sketch,
// every proxy request charging its object key so the origin's /debug/fleet
// can rank the hottest pages. An entry too large for the memory tier is
// verified at rest over the bytes r asks for (a nil r: all of them) and
// pinned for streaming; when that fails it is refetched from the origin
// inside the same request. It never yields unverifiable bytes: a hash-epoch
// mismatch refetches or fails, it never serves the old copy.
func (p *Peer) finish(s *objectServe, r *http.Request, sp *hpop.Span) {
	if s.fill {
		fsp := sp.Child("origin_fill")
		fsp.SetLabel("path", s.path)
		s.out, s.err = p.serveOrigin(s)
		fsp.SetError(s.err)
		fsp.End()
	}
	p.countServe(s.out, s.err, time.Since(s.start).Seconds())
	if rep := p.reporter.Load(); rep != nil {
		rep.ObserveKey(s.provider+s.path, 1)
	}
	if s.err == nil && s.out.tier == tierDiskStream && s.out.data == nil {
		if s.win = p.openStream(r, s.path, s.out); s.win == nil {
			s.out, s.err = p.serveMiss(s.origin, s.base, s.out.key, s.path, s.expect, s.hdr)
		}
	}
	if s.err != nil {
		p.metrics.Inc("nocdn.peer.proxy_errors")
	}
}

// serveCached is the half of s's serve that never waits on the origin (a
// stale-while-revalidate serve kicks its refresh off in the background).
// ok false means the origin must be asked, by serveOrigin: a fill when
// out.meta is nil — a miss or a hash-epoch refetch — else a revalidation of
// the cached out.
func (p *Peer) serveCached(s *objectServe) (out serveOutcome, ok bool) {
	key := varyKey(s.base, p.varyNamesFor(s.base), s.hdr)
	data, m, tier, found := p.cacheGet(key)
	if !found {
		return serveOutcome{key: key}, false
	}
	age := p.now().Sub(m.fetchedAt)
	if age < 0 {
		age = 0
	}
	cached := serveOutcome{key: key, data: data, meta: m, tier: tier, xcache: XCacheStale, age: age}
	switch decide(m, s.expect, age) {
	case decHit:
		cached.xcache = XCacheHit
		return cached, true
	case decStaleEpoch:
		p.metrics.Inc("nocdn.peer.stale_serves")
		return cached, true
	case decStaleSWR:
		p.metrics.Inc("nocdn.peer.stale_serves")
		p.revalidateAsync(s.origin, s.base, key, s.path, m, s.hdr)
		return cached, true
	case decRefetch:
		// Wrong hash epoch: the cached bytes can never satisfy this loader.
		return serveOutcome{key: key}, false
	default: // decRevalidate
		return cached, false
	}
}

// serveOrigin finishes a serve serveCached could not answer alone; s.out is
// what serveCached found.
func (p *Peer) serveOrigin(s *objectServe) (serveOutcome, error) {
	cached := s.out
	if cached.meta == nil {
		return p.serveMiss(s.origin, s.base, cached.key, s.path, s.expect, s.hdr)
	}
	nd, nm, notModified, err := p.originGet(s.origin, s.base, cached.key, s.path, cached.meta, s.hdr)
	if err != nil {
		if s.expect == "" && cached.meta.withinSIE(cached.age) {
			// Origin down or erroring: serve the stale copy inside the
			// granted window rather than failing the edge.
			p.metrics.Inc("nocdn.peer.stale_serves")
			return cached, nil
		}
		return serveOutcome{}, err
	}
	if notModified {
		return serveOutcome{key: cached.key, data: cached.data, meta: nm, tier: cached.tier, xcache: XCacheRevalidated}, nil
	}
	return serveOutcome{key: cached.key, data: nd, meta: nm, tier: tierOrigin, xcache: XCacheMiss}, nil
}

// serveMiss fills key from the origin — on a miss, a hash-epoch refetch, or
// for a streamed entry that failed verification — and reports a MISS.
// Concurrent callers per key coalesce under the flight group.
func (p *Peer) serveMiss(origin, base, key, path, expect string, reqHdr http.Header) (serveOutcome, error) {
	data, m, err := p.flight.do(key, func() ([]byte, *entryMeta, error) {
		if data, m, ok := p.filled(key, expect); ok {
			return data, m, nil
		}
		data, m, _, err := p.originGet(origin, base, key, path, nil, reqHdr)
		return data, m, err
	})
	if err != nil {
		return serveOutcome{}, err
	}
	// With Vary learned on this first response, the entry was stored under
	// the pre-Vary key; subsequent requests recompute the variant key. The
	// first requester still gets its own response — correct by construction.
	return serveOutcome{key: key, data: data, meta: m, tier: tierOrigin, xcache: XCacheMiss}, nil
}

// filled is serveMiss's re-check inside the flight: a caller that missed
// just as another's fill finished takes that copy, from memory or verified
// off the disk tier (where a large object lands), rather than refetch. Only
// a copy with metadata of the expected hash will do: a refetch (epoch
// mismatch) never short-circuits into the very bytes it is replacing.
func (p *Peer) filled(key, expect string) ([]byte, *entryMeta, bool) {
	usable := func(m *entryMeta) bool { return m != nil && (expect == "" || m.hash == expect) }
	if data, m, ok := p.cache.get(key); ok {
		return data, m, usable(m)
	}
	st := p.store.Load()
	if st == nil {
		return nil, nil, false
	}
	e, seg, ok := st.get(key)
	if !ok {
		return nil, nil, false
	}
	defer seg.release()
	if !usable(e.meta) {
		return nil, nil, false
	}
	data, err := st.readVerify(key, e, seg)
	return data, e.meta, err == nil
}

// writeCacheHeaders emits the observable cache state plus the entry's
// captured origin headers.
func writeCacheHeaders(h http.Header, out serveOutcome) {
	out.meta.applyHeaders(h)
	h.Set(XCacheHeader, out.xcache)
	h.Set(AgeHeader, strconv.Itoa(int(out.age/time.Second)))
}

// countServe moves the per-request counters exactly once: every request is
// either a hit (any serve out of cache: HIT, STALE, REVALIDATED) or a miss
// (a full origin round trip fetched the body, or the request failed).
func (p *Peer) countServe(out serveOutcome, err error, elapsed float64) {
	// The unified serve histogram (hits, misses, and failures alike) is
	// the fleet serve-p99 source: its bucket deltas ship in telemetry
	// reports and merge bucket-exactly at the origin.
	p.metrics.Observe("nocdn.peer.serve_seconds", elapsed)
	if err == nil {
		p.metrics.Inc(xcacheSeries(out.xcache))
	}
	hit := err == nil && out.xcache != XCacheMiss
	if hit {
		p.hits.Add(1)
		switch out.tier {
		case tierMem:
			p.memHits.Add(1)
		default:
			p.diskHits.Add(1)
		}
		p.metrics.Inc("nocdn.peer.hits")
		ts := out.tier.series()
		p.metrics.Inc(ts.hits)
		p.metrics.Observe(ts.hitSeconds, elapsed)
		return
	}
	p.misses.Add(1)
	p.metrics.Inc("nocdn.peer.misses")
	p.metrics.Observe("nocdn.peer.miss_seconds", elapsed)
}

// xcacheSeries names the nocdn.peer.xcache counter of an X-Cache verdict:
// the verdict lower-cased, spelled out for the four a serve gives so that
// counting one builds no string.
func xcacheSeries(xcache string) string {
	switch xcache {
	case XCacheHit:
		return "nocdn.peer.xcache.hit"
	case XCacheMiss:
		return "nocdn.peer.xcache.miss"
	case XCacheStale:
		return "nocdn.peer.xcache.stale"
	case XCacheRevalidated:
		return "nocdn.peer.xcache.revalidated"
	}
	return "nocdn.peer.xcache." + strings.ToLower(xcache)
}

// streamWindow is the span [lo, hi) of a disk-tier entry that a serve
// verified at rest and streams off the segment file, which stays pinned
// until release.
type streamWindow struct {
	e      segEntry
	seg    *segment
	lo, hi int64
	// ctype is the Content-Type to declare when the entry has no stored one.
	ctype string
}

func (w *streamWindow) reader() *windowReader { return newWindowReader(w.e, w.seg, w.lo, w.hi) }
func (w *streamWindow) release()              { w.seg.release() }

// openStream readies a tierDiskStream serve. It resolves the bytes the
// response to r will carry (serveWindow; all of them for a nil r) and
// verifies at rest the blocks that cover them — all of them without a
// Range, and for an entry's first streamed serve, which checks the whole
// object and earns its block sums. The answer then streams through a
// windowReader, which fails closed outside what was just verified. It
// returns nil when the entry failed verification or a read (it is
// quarantined by then) or is gone — evicted, reclaimed — since the lookup.
func (p *Peer) openStream(r *http.Request, path string, out serveOutcome) *streamWindow {
	st := p.store.Load()
	if st == nil {
		return nil
	}
	e, seg, ok := st.get(out.key)
	if !ok {
		return nil
	}
	start, end := serveWindow(r, e.n)
	lo, hi, err := st.verifyWindow(out.key, e, seg, start, end)
	win := &streamWindow{e: e, seg: seg, lo: lo, hi: hi}
	if err == nil && out.meta.contentType == "" {
		win.ctype, err = streamedType(st, path, out.key, e, seg, lo, hi)
	}
	if err != nil {
		seg.release()
		return nil
	}
	return win
}

// writeStream answers a single GET off its verified window: http.ServeContent
// streams the segment file section, Range handling included.
func (p *Peer) writeStream(w http.ResponseWriter, r *http.Request, path string, out serveOutcome, win *streamWindow) {
	defer win.release()
	writeCacheHeaders(w.Header(), out)
	if win.ctype != "" {
		w.Header().Set("Content-Type", win.ctype)
	}
	cw := &countingResponseWriter{ResponseWriter: w}
	http.ServeContent(cw, r, path, time.Time{}, win.reader())
	p.countBytes(out, cw.n)
}

// streamedType names the Content-Type of a disk entry that has no stored one
// (recovered after a restart) the way http.ServeContent would — by extension,
// else sniffed from the head of the object — so that ServeContent does not
// sniff it from the reader's first bytes, which a Range serve has not
// verified. [lo, hi) is the span this request already verified; a head
// outside it is verified first, and read through a windowReader like any
// other at-rest byte.
func streamedType(st *segmentStore, path, key string, e segEntry, seg *segment, lo, hi int64) (string, error) {
	if ctype := mime.TypeByExtension(filepath.Ext(path)); ctype != "" {
		return ctype, nil
	}
	var buf [512]byte
	head := buf[:min(int64(len(buf)), e.n)]
	if lo > 0 {
		var err error
		if lo, hi, err = st.verifyWindow(key, e, seg, 0, int64(len(head))); err != nil {
			return "", err
		}
	}
	if _, err := io.ReadFull(newWindowReader(e, seg, lo, hi), head); err != nil {
		return "", err
	}
	return http.DetectContentType(head), nil
}

// serveWindow resolves the bytes [start, end) of an n-byte entry that the
// response to r will carry, as far as this package will vouch for: a single
// "bytes=a-b" or "bytes=a-" Range with no If-Range is that range; anything
// else — no request (a bundle item), no Range, a suffix or multi-part range,
// a range conditional on If-Range, one parseRange rejects — is everything.
// net/http parses the header again when it serves; windowReader is what
// keeps the two answers from ever disagreeing in bytes.
func serveWindow(r *http.Request, n int64) (start, end int64) {
	if r == nil {
		return 0, n
	}
	if rng := r.Header.Get("Range"); rng != "" && r.Header.Get("If-Range") == "" {
		if s, e, ok := parseRange(rng, int(n)); ok {
			return int64(s), int64(e)
		}
	}
	return 0, n
}

// writeOutcome writes an in-memory serve. A plain GET is one direct write
// under a declared Content-Length; a request carrying Range, If-Match or
// If-None-Match goes through http.ServeContent, so it gets the answer a
// disk-tier serve gives. out.data aliases the cache entry and is only ever
// read, so a cached object can never be poisoned in place.
func (p *Peer) writeOutcome(w http.ResponseWriter, r *http.Request, out serveOutcome) {
	writeCacheHeaders(w.Header(), out)
	n := int64(len(out.data))
	if r.Header.Get("Range") != "" || r.Header.Get("If-Match") != "" || r.Header.Get("If-None-Match") != "" {
		cw := &countingResponseWriter{ResponseWriter: w}
		http.ServeContent(cw, r, "", time.Time{}, bytes.NewReader(out.data))
		n = cw.n
	} else {
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.Write(out.data)
	}
	p.countBytes(out, n)
}

// countBytes charges n served bytes of out to the peer's ledger.
func (p *Peer) countBytes(out serveOutcome, n int64) {
	p.servedBytes.Add(n)
	p.metrics.Add(out.tier.series().bytes, float64(n))
}
