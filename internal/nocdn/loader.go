package nocdn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/auth"
	"hpop/internal/faults"
	"hpop/internal/hpop"
)

// DefaultConcurrency is the loader's default bound on simultaneous network
// fetches — the browser-style per-origin connection pool the paper's
// JavaScript loader would inherit from the browser.
const DefaultConcurrency = 6

// DefaultFetchTimeout bounds each individual HTTP attempt (and becomes the
// Timeout of the lazily built default client). Residential peers flap;
// an unbounded fetch would wedge a page load forever.
const DefaultFetchTimeout = 15 * time.Second

// Loader is the client side of the NoCDN workflow (the paper's JavaScript
// loader script, "fully implemented in standard JavaScript" in a browser; a
// Go client here). It executes Fig. 2: fetch the wrapper, fetch every object
// from its assigned peer, verify hashes, fall back to the origin for
// tampered objects, assemble the page, and deliver a signed usage record to
// each peer. A page's whole objects are asked of each peer in bundles — one
// per peer unless its objects pass a bundle's bounds (bundle.go) — and
// chunks as Range requests; the requests fan out across a
// bounded worker pool ("from multiple peers" — the transfers genuinely
// overlap).
//
// Every request carries a per-attempt timeout and transient failures
// (network errors, truncated bodies, 5xx responses) retry with capped
// exponential backoff before the loader falls back to the origin or gives
// up — one flaky peer must never wedge or corrupt a page view.
type Loader struct {
	// OriginURL is the content provider's base URL.
	OriginURL string
	// ClientID, when set, identifies this client to the origin's wrapper
	// endpoint: the same client keeps hitting the same precomputed peer map
	// within an epoch. Empty lets the origin key the map on the remote host.
	ClientID string
	// HTTPClient, when set, is used as-is. When nil a client with
	// FetchTimeout is built lazily (the previous default —
	// http.DefaultClient — is unbounded and unsafe against stalled peers).
	HTTPClient *http.Client
	// Concurrency bounds simultaneous bundle/chunk/record requests during
	// LoadPage, and is the idle pool per host of the client built when
	// HTTPClient is nil. <= 0 means DefaultConcurrency; 1 reproduces the
	// serial loader exactly.
	Concurrency int
	// FetchTimeout bounds each individual HTTP attempt. <= 0 means
	// DefaultFetchTimeout.
	FetchTimeout time.Duration
	// Retry governs per-request retries of transient failures. The zero
	// value applies the faults package defaults.
	Retry faults.Policy
	// Metrics, when non-nil, receives loader counters —
	// nocdn.loader.retries (extra attempts at an object, chunk or record),
	// nocdn.loader.giveups (fetches that exhausted their budget),
	// nocdn.loader.fallbacks (objects refetched from the origin), and
	// per-peer byte attribution (nocdn.loader.peer.<id>.bytes) — plus
	// latency histograms: nocdn.loader.fetch_seconds (every peer or origin
	// request, a bundle being one), nocdn.loader.peer.<id>.fetch_seconds
	// (per serving peer, per request),
	// nocdn.loader.verify_seconds (hash verification), and
	// nocdn.loader.page_seconds (whole page views).
	Metrics *hpop.Metrics
	// Tracer, when non-nil, records one span tree per page view: a
	// load_page root with fetch_object children and an origin_fallback
	// child wherever a peer failed or served tampered bytes.
	Tracer *hpop.Tracer
	// Health, when non-nil, closes the self-healing loop on the client
	// side: every fetch outcome feeds the serving peer's circuit breaker,
	// open-circuit peers are skipped (nocdn.loader.circuit_skips), an
	// object's candidate peers (primary + wrapper replicas) are re-ranked
	// by health before fetching, and origin fallbacks charge the
	// responsible peer an extra breaker failure.
	Health *hpop.HealthRegistry
	// Brownout, when true, degrades instead of failing: an object whose
	// peers and origin fallback all failed is reported in
	// PageResult.Degraded (no bytes — never unverified ones) and the rest
	// of the page still loads.
	Brownout bool
	// now is injectable for tests.
	Now func() time.Time

	clientOnce    sync.Once
	defaultClient *http.Client

	// series holds each serving peer's Metrics names, built on its first
	// fetch: as many entries as the registry has per-peer series.
	seriesMu sync.Mutex
	series   map[string]peerSeries
}

// peerSeries names one peer's loader series.
type peerSeries struct{ bytes, fetchSeconds string }

// peerSeries returns peerID's series names, building them on first use.
func (l *Loader) peerSeries(peerID string) peerSeries {
	l.seriesMu.Lock()
	defer l.seriesMu.Unlock()
	ps, ok := l.series[peerID]
	if !ok {
		if l.series == nil {
			l.series = make(map[string]peerSeries)
		}
		ps = peerSeries{
			bytes:        "nocdn.loader.peer." + peerID + ".bytes",
			fetchSeconds: "nocdn.loader.peer." + peerID + ".fetch_seconds",
		}
		// A copy: peerID is a substring of a whole wrapper body.
		l.series[strings.Clone(peerID)] = ps
	}
	return ps
}

// countPeerBytes credits n verified bytes to peerID's byte series.
func (l *Loader) countPeerBytes(peerID string, n int) {
	if l.Metrics != nil {
		l.Metrics.Add(l.peerSeries(peerID).bytes, float64(n))
	}
}

// PageResult is an assembled page download.
type PageResult struct {
	Page string
	// Body maps object path -> verified bytes.
	Body map[string][]byte
	// PeerBytes maps peerID -> verified bytes obtained from that peer.
	PeerBytes map[string]int64
	// FallbackObjects lists objects whose peer copy failed verification and
	// were refetched from the origin, in wrapper order.
	FallbackObjects []string
	// Degraded lists objects that could not be fetched from any peer or the
	// origin, in wrapper order — brownout mode's degraded-object markers.
	// These paths have no Body entry; nothing unverified is ever rendered.
	Degraded []string
	// TamperDetected reports whether any hash mismatch occurred.
	TamperDetected bool
	// RecordsDelivered counts usage records handed to peers.
	RecordsDelivered int
}

// TotalBytes sums the verified page payload.
func (r *PageResult) TotalBytes() int64 {
	var n int64
	for _, b := range r.Body {
		n += int64(len(b))
	}
	return n
}

func (l *Loader) client() *http.Client {
	if l.HTTPClient != nil {
		return l.HTTPClient
	}
	l.clientOnce.Do(func() {
		// Keep as many idle connections per host as the loader has requests
		// in flight, as a browser does; http.DefaultTransport keeps two.
		tr := &http.Transport{Proxy: http.ProxyFromEnvironment}
		if def, ok := http.DefaultTransport.(*http.Transport); ok {
			tr = def.Clone()
		}
		tr.MaxIdleConnsPerHost = l.concurrency()
		l.defaultClient = &http.Client{Timeout: l.fetchTimeout(), Transport: tr}
	})
	return l.defaultClient
}

func (l *Loader) fetchTimeout() time.Duration {
	if l.FetchTimeout > 0 {
		return l.FetchTimeout
	}
	return DefaultFetchTimeout
}

func (l *Loader) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

func (l *Loader) concurrency() int {
	if l.Concurrency > 0 {
		return l.Concurrency
	}
	return DefaultConcurrency
}

// fetchGate bounds in-flight network requests. Holders never block on
// another acquisition, so the pool cannot deadlock however objects and
// chunks nest.
type fetchGate chan struct{}

func (g fetchGate) enter() { g <- struct{}{} }
func (g fetchGate) leave() { <-g }

// maxUnsizedBody caps a response the wrapper did not size — the wrapper
// itself, a /record acknowledgement, an object whose ref carries no Size —
// so a lying Content-Length cannot make the loader allocate without bound.
const maxUnsizedBody = 64 << 20

// fetchBytes issues one logical request, rebuilding it per attempt and
// retrying transient failures (network errors, mid-body truncation, 5xx)
// with capped backoff. Non-5xx unacceptable statuses are permanent. The
// retry/giveup counters land in Metrics.
//
// The response body is read with readBody, once, into memory whose size is
// known up front. A non-nil dst is that memory: the body must be exactly
// len(dst) bytes and is returned as dst — the wrapper states every object's
// size and every chunk's length — and a retry overwrites the same range.
// With dst nil the slice is sized by the response's Content-Length. A body
// that ends cleanly at another length (errBodyLength) is the sender's whole
// answer and is never retried.
func (l *Loader) fetchBytes(ctx context.Context, method, url string, hdr map[string]string, body []byte, okStatus func(int) bool, dst []byte) ([]byte, error) {
	var out []byte
	attempts, err := l.retryPolicy().Do(ctx, func(actx context.Context) error {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(actx, method, url, rdr)
		if err != nil {
			return faults.Permanent(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := l.client().Do(req)
		if err != nil {
			return err // transient: reset, blackout, timeout
		}
		defer resp.Body.Close()
		if !okStatus(resp.StatusCode) {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			serr := fmt.Errorf("nocdn: status %d for %s %s", resp.StatusCode, method, url)
			if resp.StatusCode >= 500 {
				return serr // transient: overloaded/faulting peer
			}
			return faults.Permanent(serr)
		}
		data, err := readBody(resp.Body, dst, resp.ContentLength, maxUnsizedBody)
		if errors.Is(err, errBodyLength) || errors.Is(err, errBodyTooLarge) {
			return faults.Permanent(fmt.Errorf("nocdn: %s %s: %w", method, url, err))
		}
		if err != nil {
			return err // transient: truncated mid-body
		}
		out = data
		return nil
	})
	if attempts > 1 {
		l.Metrics.Add("nocdn.loader.retries", float64(attempts-1))
	}
	if err != nil {
		l.Metrics.Inc("nocdn.loader.giveups")
		return nil, err
	}
	return out, nil
}

// retryPolicy is Retry with every attempt bounded by the fetch timeout.
func (l *Loader) retryPolicy() faults.Policy {
	pol := l.Retry
	if pol.AttemptTimeout <= 0 {
		pol.AttemptTimeout = l.fetchTimeout()
	}
	return pol
}

func statusOK(code int) bool { return code == http.StatusOK }
func statusOKPartial(code int) bool {
	return code == http.StatusOK || code == http.StatusPartialContent
}

// FetchWrapper retrieves and parses the wrapper page.
func (l *Loader) FetchWrapper(page string) (*Wrapper, error) {
	return l.FetchWrapperContext(context.Background(), page)
}

// FetchWrapperContext retrieves and parses the wrapper page under ctx.
func (l *Loader) FetchWrapperContext(ctx context.Context, page string) (*Wrapper, error) {
	return l.fetchWrapper(ctx, nil, page)
}

// fetchWrapper retrieves the wrapper page, recording a fetch_wrapper span
// under parent whose context rides the request as a traceparent header — the
// origin's wrapper span continues the page view's trace.
func (l *Loader) fetchWrapper(ctx context.Context, parent *hpop.Span, page string) (*Wrapper, error) {
	sp := parent.Child("fetch_wrapper")
	sp.SetLabel("page", page)
	defer sp.End()
	wurl := l.OriginURL + "/wrapper?page=" + url.QueryEscape(page)
	if l.ClientID != "" {
		wurl += "&client=" + url.QueryEscape(l.ClientID)
	}
	data, err := l.fetchBytes(ctx, http.MethodGet, wurl, traceHeader(sp, nil), nil, statusOK, nil)
	if err != nil {
		sp.SetError(err)
		return nil, fmt.Errorf("nocdn: wrapper fetch: %w", err)
	}
	w, err := decodeWrapper(data)
	if err != nil {
		sp.SetError(err)
		return nil, fmt.Errorf("nocdn: wrapper decode: %w", err)
	}
	return w, nil
}

// escapePath escapes an object path for a request URL, its slashes kept, so
// the handler's r.URL.Path is the path again. A path that needs no escape
// comes back as it is, without allocating.
func escapePath(path string) string {
	return (&url.URL{Path: path}).EscapedPath()
}

// traceHeader adds sp's traceparent to hdr (allocating it when needed),
// returning hdr unchanged for a nil or unsampled span.
func traceHeader(sp *hpop.Span, hdr map[string]string) map[string]string {
	tp := sp.Context().Traceparent()
	if tp == "" {
		return hdr
	}
	if hdr == nil {
		hdr = make(map[string]string, 1)
	}
	hdr[hpop.TraceparentHeader] = tp
	return hdr
}

// labelCopy labels sp with a copy of value, for a value that is one of the
// decoded wrapper's strings: those share the wrapper's body, and a span
// outlives the view in the tracer's ring. A nil span copies nothing.
func labelCopy(sp *hpop.Span, key, value string) {
	if sp != nil {
		sp.SetLabel(key, strings.Clone(value))
	}
}

// getFrom fetches one chunk of ref from its peer as a Range request into
// dst (see fetchBytes), holding a gate slot for the duration of the request
// (retries included, so the concurrency bound holds under fault storms too).
// sp's context rides the request as a traceparent header, so the peer's
// proxy span joins the page view's trace, and the wrapper's hash rides it as
// X-Nocdn-Hash, so the peer applies the hash-epoch freshness rule (a
// matching cached entry is current at any age; a mismatched one must be
// refetched, never served stale). Latency lands in the overall and per-peer
// fetch histograms; the outcome feeds the peer's breaker.
func (l *Loader) getFrom(ctx context.Context, gate fetchGate, sp *hpop.Span, provider string, ref ObjectRef, chunk *ChunkRef, dst []byte) error {
	gate.enter()
	defer gate.leave()
	hdr := traceHeader(sp, map[string]string{
		"Range":          fmt.Sprintf("bytes=%d-%d", chunk.Offset, chunk.Offset+chunk.Length-1),
		ExpectHashHeader: ref.Hash,
	})
	start := time.Now()
	data, err := l.fetchBytes(ctx, http.MethodGet, chunk.PeerURL+"/proxy/"+provider+escapePath(ref.Path), hdr, nil, statusOKPartial, dst)
	elapsed := time.Since(start).Seconds()
	l.observeFetch(chunk.PeerID, elapsed)
	if err != nil {
		l.Health.RecordFailure(chunk.PeerID)
		return err
	}
	l.countPeerBytes(chunk.PeerID, len(data))
	l.Health.RecordSuccess(chunk.PeerID, elapsed)
	return nil
}

// observeFetch times one request to peerID into the fetch histograms.
func (l *Loader) observeFetch(peerID string, elapsed float64) {
	if l.Metrics != nil {
		l.Metrics.Observe("nocdn.loader.fetch_seconds", elapsed)
		l.Metrics.Observe(l.peerSeries(peerID).fetchSeconds, elapsed)
	}
}

// fetchBundle asks one peer for items in one bundle, holding one gate slot
// for the duration (retries included). An item the peer answered -5xx, or
// that a cut body failed or never reached, is asked for again with the
// others still unsettled, under the Retry policy; the rest settle on their
// first answer. sp's context rides each request as a traceparent. Counted as
// the objects' own GETs were: one retry per extra attempt that reached an
// object, one giveup and one breaker failure per object left without a
// body, one breaker success and the bytes for each object that has one.
func (l *Loader) fetchBundle(ctx context.Context, gate fetchGate, sp *hpop.Span, peer PeerRef, provider string, items []*bundleItem) {
	gate.enter()
	defer gate.leave()
	pending := make([]*bundleItem, 0, len(items))
	start := time.Now()
	// Each item keeps its own outcome; Do's error is the last attempt's.
	l.retryPolicy().Do(ctx, func(actx context.Context) error {
		pending = pending[:0]
		for _, it := range items {
			if !it.settled {
				pending = append(pending, it)
			}
		}
		return l.bundleAttempt(actx, sp, peer.PeerURL, provider, pending)
	})
	elapsed := time.Since(start).Seconds()
	l.observeFetch(peer.PeerID, elapsed)
	var retries, giveups, served int
	for _, it := range items {
		retries += max(it.tries-1, 0)
		if it.data == nil {
			giveups++
			l.Health.RecordFailure(peer.PeerID)
			continue
		}
		served += len(it.data)
		l.Health.RecordSuccess(peer.PeerID, elapsed)
	}
	if retries > 0 {
		l.Metrics.Add("nocdn.loader.retries", float64(retries))
	}
	if giveups > 0 {
		l.Metrics.Add("nocdn.loader.giveups", float64(giveups))
	}
	if served > 0 {
		l.countPeerBytes(peer.PeerID, served)
	}
}

// originFallback fetches an object straight from the provider into dst (see
// fetchBytes), recording an origin_fallback span under parent. peerID names
// the peer responsible for forcing the fallback ("" when no single peer is):
// it is charged an extra breaker failure on top of the failed attempt itself,
// because a fallback costs the page an extra origin round trip — a peer that
// keeps forcing them must stop looking healthy just because the page still
// loads. An origin copy of another length than the wrapper declared comes
// back as no bytes and no error: the caller's hash check refuses it.
func (l *Loader) originFallback(ctx context.Context, gate fetchGate, parent *hpop.Span, peerID, path, reason string, dst []byte) ([]byte, error) {
	gate.enter()
	defer gate.leave()
	l.Metrics.Inc("nocdn.loader.fallbacks")
	l.Health.RecordFallback(peerID)
	sp := parent.Child("origin_fallback")
	labelCopy(sp, "path", path)
	sp.SetLabel("reason", reason)
	if peerID != "" {
		labelCopy(sp, "peer", peerID)
	}
	defer sp.End()
	start := time.Now()
	data, err := l.fetchBytes(ctx, http.MethodGet, l.OriginURL+"/content"+escapePath(path), traceHeader(sp, nil), nil, statusOK, dst)
	l.Metrics.Observe("nocdn.loader.fetch_seconds", time.Since(start).Seconds())
	sp.SetError(err)
	if errors.Is(err, errBodyLength) {
		return nil, nil
	}
	return data, err
}

// objectResult is one object's outcome, produced by a worker and merged
// into the PageResult in wrapper order.
type objectResult struct {
	data     []byte
	paid     credit
	fallback bool
	tampered bool
	degraded bool
	err      error
}

// credit names the peers an object's verified bytes are credited to: peer
// with all of them for a whole object, or, for a chunked one, chunks: each
// chunk's peer with its bytes. The zero credit pays no one.
type credit struct {
	peer   string
	chunks map[string]int64
}

// LoadPage performs the full Fig. 2 workflow for one page view.
func (l *Loader) LoadPage(page string) (*PageResult, error) {
	return l.LoadPageContext(context.Background(), page)
}

// LoadPageContext performs the full Fig. 2 workflow for one page view under
// ctx; canceling it aborts in-flight fetches and pending retries. Object
// fetches run concurrently (bounded by Concurrency); results merge in
// wrapper order, so Body, PeerBytes, and FallbackObjects are identical to a
// serial load.
func (l *Loader) LoadPageContext(ctx context.Context, page string) (*PageResult, error) {
	sp := l.Tracer.Start("nocdn.loader", "load_page")
	sp.SetLabel("page", page)
	defer sp.End()
	start := time.Now()
	defer func() { l.Metrics.Observe("nocdn.loader.page_seconds", time.Since(start).Seconds()) }()
	w, err := l.fetchWrapper(ctx, sp, page)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	refs := append([]ObjectRef{w.Container}, w.Objects...)
	res := &PageResult{
		Page:      page,
		Body:      make(map[string][]byte, len(refs)),
		PeerBytes: make(map[string]int64),
	}
	gate := make(fetchGate, l.concurrency())
	results := make([]objectResult, len(refs))
	items, bundles := l.planBundles(refs)
	var wg sync.WaitGroup
	workerLabels := pprof.Labels("service", "nocdn.loader", "span", "fetch_object")
	for i := range refs {
		if items[i].ref != nil {
			continue // fetched by its bundle below
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pprof.Do(ctx, workerLabels, func(ctx context.Context) {
				results[i] = l.loadObject(ctx, gate, sp, w.Provider, refs[i], nil)
			})
		}(i)
	}
	for _, b := range bundles {
		wg.Add(1)
		go func(b []int) {
			defer wg.Done()
			pprof.Do(ctx, workerLabels, func(ctx context.Context) {
				bsp := sp.Child("fetch_bundle")
				peer := items[b[0]].peer
				labelCopy(bsp, "peer", peer.PeerID)
				bsp.SetLabel("objects", strconv.Itoa(len(b)))
				batch := make([]*bundleItem, len(b))
				for k, i := range b {
					batch[k] = &items[i]
				}
				l.fetchBundle(ctx, gate, bsp, peer, w.Provider, batch)
				bsp.End()
				// What is left of an object is local work unless its item
				// failed; a failed one goes on to its next candidates and the
				// origin beside the others rather than behind them.
				for _, i := range b {
					if items[i].data == nil {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							results[i] = l.loadObject(ctx, gate, sp, w.Provider, refs[i], &items[i])
						}(i)
						continue
					}
					results[i] = l.loadObject(ctx, gate, sp, w.Provider, refs[i], &items[i])
				}
			})
		}(b)
	}
	wg.Wait()

	// Deterministic merge: wrapper order, first error wins.
	for i, ref := range refs {
		r := results[i]
		if r.tampered {
			res.TamperDetected = true
		}
		if r.err != nil {
			sp.SetError(r.err)
			return nil, r.err
		}
		if r.fallback {
			res.FallbackObjects = append(res.FallbackObjects, ref.Path)
		}
		if r.degraded {
			res.Degraded = append(res.Degraded, ref.Path)
			continue // degraded objects never get a Body entry
		}
		res.Body[ref.Path] = r.data
		if r.paid.peer != "" {
			res.PeerBytes[r.paid.peer] += int64(len(r.data))
		}
		for peer, n := range r.paid.chunks {
			res.PeerBytes[peer] += n
		}
	}

	// "Upon finishing the page download, the script transfers a usage
	// record to each peer."
	res.RecordsDelivered = l.deliverRecords(ctx, gate, sp, w, res)
	sp.SetLabel("fallbacks", fmt.Sprint(len(res.FallbackObjects)))
	if len(res.Degraded) > 0 {
		sp.SetLabel("degraded", fmt.Sprint(len(res.Degraded)))
	}
	return res, nil
}

// verify hash-checks fetched bytes against the wrapper, timing the check
// into the verify histogram. The digest is compared in hex, as the wrapper
// states it, through a buffer on the stack.
func (l *Loader) verify(data []byte, wantHash string) bool {
	start := time.Now()
	sum := sha256.Sum256(data)
	var got [2 * sha256.Size]byte
	hex.Encode(got[:], sum[:])
	ok := string(got[:]) == wantHash
	l.Metrics.Observe("nocdn.loader.verify_seconds", time.Since(start).Seconds())
	return ok
}

// appendCandidates appends to buf the peers that may serve ref whole — the
// assigned primary plus any wrapper replicas — re-ranked by health when a
// registry is wired, so a known-bad primary is tried last instead of first.
func (l *Loader) appendCandidates(buf []PeerRef, ref ObjectRef) []PeerRef {
	start := len(buf)
	if ref.PeerID != "" {
		buf = append(buf, PeerRef{PeerID: ref.PeerID, PeerURL: ref.PeerURL})
	}
	for _, rep := range ref.Replicas {
		if rep.PeerID != "" && rep.PeerID != ref.PeerID {
			buf = append(buf, rep)
		}
	}
	cands := buf[start:]
	if l.Health == nil || len(cands) < 2 {
		return buf
	}
	ids := make([]string, len(cands))
	byID := make(map[string]PeerRef, len(cands))
	for i, c := range cands {
		ids[i] = c.PeerID
		byID[c.PeerID] = c
	}
	for i, id := range l.Health.Rank(ids) {
		cands[i] = byID[id]
	}
	return buf
}

// planBundles groups the unchunked refs by their first admitted candidate —
// the first of the health-ranked candidates whose breaker admits it — into
// bundles, each listing its refs' indexes in wrapper order: one per peer,
// unless its objects pass maxBundleItems or maxBundleBytes, when the peer
// gets as many as keep each within both. An object larger than
// maxBundleBytes, or one the wrapper did not size, travels alone. items[i]
// is ref i's item, with its payload memory: ref.Size bytes when the wrapper
// sized the object, nil when it did not (see fetchBytes). Its ref is nil
// for a chunked ref and for one no candidate was admitted for.
func (l *Loader) planBundles(refs []ObjectRef) (items []bundleItem, bundles [][]int) {
	items = make([]bundleItem, len(refs))
	// Every ref's candidates, in one allocation for the page.
	n := 0
	for i := range refs {
		n += 1 + len(refs[i].Replicas)
	}
	all := make([]PeerRef, 0, n)
	// First each ref's bundle (in[i]: 1 + its index into plan, 0 for none),
	// then each bundle's refs, out of one array for the page.
	type bundlePlan struct {
		peer        string
		refs, bytes int
	}
	var plan []bundlePlan
	in := make([]int, len(refs))
	for i := range refs {
		if len(refs[i].Chunks) > 0 {
			continue
		}
		start := len(all)
		all = l.appendCandidates(all, refs[i])
		cands := all[start:len(all):len(all)]
		for k, c := range cands {
			if !l.Health.Allow(c.PeerID) {
				l.Metrics.Inc("nocdn.loader.circuit_skips")
				continue
			}
			it := &items[i]
			it.ref, it.peer, it.rest = &refs[i], c, cands[k+1:]
			size := maxBundleBytes
			if it.ref.Size > 0 {
				it.dst = make([]byte, it.ref.Size)
				size = it.ref.Size
			}
			b := 0
			for b < len(plan) && (plan[b].peer != c.PeerID ||
				plan[b].refs == maxBundleItems || plan[b].bytes+size > maxBundleBytes) {
				b++
			}
			if b == len(plan) {
				plan = append(plan, bundlePlan{peer: c.PeerID})
			}
			plan[b].refs++
			plan[b].bytes += size
			in[i] = b + 1
			break
		}
	}
	bundles = make([][]int, len(plan))
	idx := make([]int, len(refs))
	at := 0
	for b := range plan {
		bundles[b] = idx[at : at : at+plan[b].refs]
		at += plan[b].refs
	}
	for i, b := range in {
		if b > 0 {
			bundles[b-1] = append(bundles[b-1], i)
		}
	}
	return items, bundles
}

// fetchFromCandidates returns ref's body from the first candidate peer
// that serves it, the peers it credits, and the serving peer's ID. first is
// ref's item of a bundle already fetched (nil when no candidate was
// admitted); when it failed, the candidates after it are tried in turn, each
// as a bundle of one, skipping open-circuit ones. On total failure, reason is
// "circuit_open" when no candidate was even admitted by its breaker
// (nothing hit the network) and "peer_failure" otherwise. Chunked refs keep
// their multi-peer fan-out into dst.
//
// A peer whose answer for the object is of another length than the wrapper
// declared has answered in full with other bytes. That is the hash mismatch
// it would have been had the bytes been kept: the transfer returns that peer
// with no data and no credit, and loadObject's verification fails it into
// the tampered fallback.
func (l *Loader) fetchFromCandidates(ctx context.Context, gate fetchGate, sp *hpop.Span, provider string, ref ObjectRef, dst []byte, first *bundleItem) (data []byte, paid credit, servedBy, reason string, err error) {
	if len(ref.Chunks) > 0 {
		paid.chunks, err = l.fetchChunks(ctx, gate, sp, provider, ref, dst)
		return dst, paid, "", "peer_failure", err
	}
	if first == nil {
		return nil, credit{}, "", "circuit_open",
			fmt.Errorf("nocdn: every candidate peer open-circuit for %s", ref.Path)
	}
	for it := first; it != nil; it = l.nextCandidate(ctx, gate, sp, provider, it) {
		if errors.Is(it.err, errBodyLength) {
			return nil, credit{}, it.peer.PeerID, "", nil
		}
		if it.data != nil {
			if it.peer.PeerID != ref.PeerID {
				labelCopy(sp, "served_by", it.peer.PeerID)
			}
			return it.data, credit{peer: it.peer.PeerID}, it.peer.PeerID, "", nil
		}
		err = it.err
	}
	return nil, credit{}, "", "peer_failure", err
}

// nextCandidate asks the first admitted candidate after it's peer for its
// object, as a bundle of one, and returns that item; nil when none is left.
func (l *Loader) nextCandidate(ctx context.Context, gate fetchGate, sp *hpop.Span, provider string, it *bundleItem) *bundleItem {
	for k, c := range it.rest {
		if !l.Health.Allow(c.PeerID) {
			l.Metrics.Inc("nocdn.loader.circuit_skips")
			continue
		}
		next := &bundleItem{ref: it.ref, dst: it.dst, peer: c, rest: it.rest[k+1:]}
		l.fetchBundle(ctx, gate, sp, c, provider, []*bundleItem{next})
		return next
	}
	return nil
}

// loadObject runs the per-object Fig. 2 steps: peer fetch (first's bundle,
// then the rest of the health-ranked candidate set), origin fallback on
// peer failure, hash verification, origin fallback on tampering. Each
// object gets a fetch_object span under the page's root span. In brownout
// mode a total failure degrades the object instead of failing the page.
func (l *Loader) loadObject(ctx context.Context, gate fetchGate, parent *hpop.Span, provider string, ref ObjectRef, first *bundleItem) objectResult {
	osp := parent.Child("fetch_object")
	labelCopy(osp, "path", ref.Path)
	if ref.PeerID != "" {
		labelCopy(osp, "peer", ref.PeerID)
	}
	defer osp.End()
	var out objectResult
	brownout := func(err error) objectResult {
		l.Metrics.Inc("nocdn.loader.brownouts")
		osp.SetLabel("degraded", "true")
		osp.SetError(err)
		out.degraded = true
		out.data = nil
		out.paid = credit{}
		out.err = nil
		return out
	}
	// The one payload allocation of this object: peer bodies, chunks and any
	// origin fallback are all read into it, and it becomes the rendered
	// bytes once it verifies. A ref without a size (a hand-built wrapper)
	// leaves it nil and each read sizes itself by its declared length.
	var dst []byte
	if first != nil {
		dst = first.dst
	} else if ref.Size > 0 {
		dst = make([]byte, ref.Size)
	}
	data, paid, servedBy, reason, err := l.fetchFromCandidates(ctx, gate, osp, provider, ref, dst, first)
	if err != nil {
		// Every candidate peer unreachable, failing, or open-circuit: fall
		// back to the origin, exactly as for tampered content — "one
		// problematic peer — be it malicious or overloaded — [must not]
		// have a large overall impact on the client."
		fallback, ferr := l.originFallback(ctx, gate, osp, ref.PeerID, ref.Path, reason, dst)
		if ferr != nil {
			out.err = fmt.Errorf("nocdn: object %s: peer: %v; origin fallback: %w", ref.Path, err, ferr)
			if l.Brownout {
				return brownout(out.err)
			}
			osp.SetError(out.err)
			return out
		}
		data = fallback
		paid = credit{}
		servedBy = ""
		out.fallback = true
	}
	// Verify the hash from the wrapper; on mismatch fall back to the
	// origin ("verifies the objects' hashes").
	if !l.verify(data, ref.Hash) {
		out.tampered = true
		osp.SetLabel("tampered", "true")
		fallback, ferr := l.originFallback(ctx, gate, osp, servedBy, ref.Path, "tampered", dst)
		if ferr != nil {
			out.err = fmt.Errorf("nocdn: tampered %s and fallback failed: %w", ref.Path, ferr)
			if l.Brownout {
				return brownout(out.err)
			}
			osp.SetError(out.err)
			return out
		}
		if !l.verify(fallback, ref.Hash) {
			out.err = fmt.Errorf("%w: %s (origin copy too)", ErrTampered, ref.Path)
			if l.Brownout {
				return brownout(out.err)
			}
			osp.SetError(out.err)
			return out
		}
		data = fallback
		out.fallback = true
		paid = credit{} // peers get no credit for corrupted bytes
	}
	out.data = data
	out.paid = paid
	return out
}

// fetchChunks retrieves a chunked object, returning the per-peer byte
// attribution. Chunks fetch concurrently, each straight into its own range
// of the assembly buffer buf — the ranges the wrapper declared, which must
// lie inside it. Range requests carry sp's traceparent to the serving peer.
func (l *Loader) fetchChunks(ctx context.Context, gate fetchGate, sp *hpop.Span, provider string, ref ObjectRef, buf []byte) (map[string]int64, error) {
	for i, c := range ref.Chunks {
		if c.Offset < 0 || c.Length < 0 || c.Offset+c.Length > len(buf) {
			return nil, fmt.Errorf("nocdn: %s chunk %d: range %d+%d outside the object's %d bytes",
				ref.Path, i, c.Offset, c.Length, len(buf))
		}
	}
	errs := make([]error, len(ref.Chunks))
	var wg sync.WaitGroup
	for i := range ref.Chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &ref.Chunks[i]
			if !l.Health.Allow(c.PeerID) {
				l.Metrics.Inc("nocdn.loader.circuit_skips")
				errs[i] = fmt.Errorf("chunk %d: peer %s open-circuit", i, c.PeerID)
				return
			}
			// A chunk of any other length is an error here (the peer_failure
			// fallback), not a shorter slice.
			if err := l.getFrom(ctx, gate, sp, provider, ref, c, buf[c.Offset:c.Offset+c.Length]); err != nil {
				errs[i] = fmt.Errorf("chunk %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	attribution := make(map[string]int64)
	for i := range ref.Chunks {
		attribution[ref.Chunks[i].PeerID] += int64(ref.Chunks[i].Length)
	}
	return attribution, nil
}

// deliverRecords signs and posts one usage record per peer that served
// verified bytes, as its leaf (LeafBytes): the bytes the peer queues and
// uploads. Deliveries fan out under the same gate as fetches. Each
// record is signed exactly once; retries re-post the same signed bytes, so
// a delivery that succeeded but whose response was lost settles once at the
// origin (the nonce cache rejects the duplicate) — accounting stays exact.
// Each record embeds its deliver_record span's traceparent (under the
// signature), so the origin's eventual settlement span for this record
// joins the page view's trace even though it arrives via the peer, a
// process the loader never talks to about settlement.
func (l *Loader) deliverRecords(ctx context.Context, gate fetchGate, parent *hpop.Span, w *Wrapper, res *PageResult) int {
	peerURLs := make(map[string]string)
	for _, ref := range append([]ObjectRef{w.Container}, w.Objects...) {
		if ref.PeerID != "" {
			peerURLs[ref.PeerID] = ref.PeerURL
		}
		for _, c := range ref.Chunks {
			peerURLs[c.PeerID] = c.PeerURL
		}
		// A failover serve is paid too, and the ring may name a peer only
		// as a replica.
		for _, rp := range ref.Replicas {
			peerURLs[rp.PeerID] = rp.PeerURL
		}
	}
	// Deterministic order for reproducible tests.
	ids := make([]string, 0, len(res.PeerBytes))
	for id := range res.PeerBytes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, peerID := range ids {
		key, ok := w.Keys[peerID]
		if !ok {
			continue
		}
		secret, err := hex.DecodeString(key.Secret)
		if err != nil {
			continue
		}
		dsp := parent.Child("deliver_record")
		labelCopy(dsp, "peer", peerID)
		rec := UsageRecord{
			Provider:    w.Provider,
			PeerID:      peerID,
			KeyID:       key.KeyID,
			Page:        w.Page,
			Bytes:       res.PeerBytes[peerID],
			Objects:     len(res.Body),
			Nonce:       auth.NewNonce(),
			IssuedAt:    l.now(),
			Traceparent: dsp.Context().Traceparent(),
		}
		rec.Sign(secret)
		body := rec.LeafBytes()
		wg.Add(1)
		go func(dsp *hpop.Span, url string, body []byte) {
			defer wg.Done()
			defer dsp.End()
			gate.enter()
			defer gate.leave()
			hdr := traceHeader(dsp, map[string]string{"Content-Type": "text/plain"})
			if _, err := l.fetchBytes(ctx, http.MethodPost, url+"/record", hdr, body,
				func(code int) bool { return code == http.StatusAccepted }, nil); err != nil {
				dsp.SetError(err)
				return
			}
			delivered.Add(1)
		}(dsp, peerURLs[peerID], body)
	}
	wg.Wait()
	return int(delivered.Load())
}
