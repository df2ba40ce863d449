package nocdn

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestMemoryEntryKeepsItsMetadata serves more distinct objects than a
// peer-wide metadata map capped at 65,536 entries could hold, all small
// enough to stay in a memory-only peer, and then serves every one again. An
// object's metadata lives on its cache entry, so the second pass is all HITs
// and never asks the origin. (With metadata kept beside the tiers under such
// a cap, entries dropped from it at random came back as MISS, each a full
// refetch of bytes that were still in memory.)
func TestMemoryEntryKeepsItsMetadata(t *testing.T) {
	if raceEnabled {
		t.Skip("141,072 serves; too slow under -race")
	}
	const objects = 1<<16 + 5000
	var fetches atomic.Int64
	p := NewPeer("mem", 256<<20)
	p.SignUp("prov", "http://origin.test")
	p.SetHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		fetches.Add(1)
		body := strings.TrimPrefix(r.URL.Path, "/content")
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body))}, nil
	})})
	h := p.Handler()
	pass := func() (misses int) {
		for i := range objects {
			path := "/o/" + strconv.Itoa(i)
			req := httptest.NewRequest(http.MethodGet, "/proxy/prov"+path, nil)
			req.Header.Set(ExpectHashHeader, HashBytes([]byte(path)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK || w.Body.String() != path {
				t.Fatalf("GET %s: %d %q", path, w.Code, w.Body.String())
			}
			if w.Header().Get(XCacheHeader) == XCacheMiss {
				misses++
			}
		}
		return misses
	}
	if misses := pass(); misses != objects || fetches.Load() != objects {
		t.Fatalf("first pass: %d MISS, %d origin requests; want %d of each", misses, fetches.Load(), objects)
	}
	fetches.Store(0)
	if misses := pass(); misses != 0 || fetches.Load() != 0 {
		t.Errorf("second pass: %d MISS, %d origin requests; want 0 of each", misses, fetches.Load())
	}
}

// TestEntryMetaTravelsWithItsBytes follows one small object's metadata
// through the two tiers: the spill that evicts it carries its headers to
// disk, the promotion that brings it back carries them to memory, and a
// refill with identical bytes hands its new headers to the disk copy on the
// next spill. Every plain-HTTP serve of a copy that kept its headers is a
// HIT replaying them; a copy that lost them would revalidate, or replay the
// old ones.
func TestEntryMetaTravelsWithItsBytes(t *testing.T) {
	var (
		mu      sync.Mutex
		headers = map[string]string{"Cache-Control": "max-age=3600", "Content-Type": "application/x-first"}
		now     = time.Unix(1_700_000_000, 0)
	)
	p := NewPeer("tiers", 64<<10) // 4 KiB memory shards
	p.nowFn = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	if err := p.AttachDiskCache(t.TempDir(), 64<<20, 8<<20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseDiskCache)
	p.SignUp("prov", "http://origin.test")
	p.SetHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		path := strings.TrimPrefix(r.URL.Path, "/content")
		h := http.Header{}
		if path == "/a" {
			mu.Lock()
			for k, v := range headers {
				h.Set(k, v)
			}
			mu.Unlock()
		}
		body := strings.Repeat(path[len(path)-1:], 1<<10)
		return &http.Response{StatusCode: http.StatusOK, Header: h, Request: r,
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body))}, nil
	})})
	handler := p.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/proxy/prov"+path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		return w
	}
	evictA := func() {
		t.Helper()
		for i := range 200 {
			get("/o/" + strconv.Itoa(i))
		}
		if _, _, ok := p.cache.get("prov|/a"); ok {
			t.Fatal("/a is still in memory")
		}
		if st := p.store.Load(); !st.contains("prov|/a") {
			t.Fatal("/a did not spill")
		}
	}
	want := func(w *httptest.ResponseRecorder, xcache, ctype, cc string) {
		t.Helper()
		if got := [3]string{w.Header().Get(XCacheHeader), w.Header().Get("Content-Type"), w.Header().Get("Cache-Control")}; got != [3]string{xcache, ctype, cc} {
			t.Fatalf("X-Cache, Content-Type, Cache-Control = %q, want %q", got, [3]string{xcache, ctype, cc})
		}
	}

	want(get("/a"), XCacheMiss, "application/x-first", "max-age=3600")
	evictA()
	want(get("/a"), XCacheHit, "application/x-first", "max-age=3600") // promoted off the spilled copy
	want(get("/a"), XCacheHit, "application/x-first", "max-age=3600") // the promoted copy in memory

	// Two hours on, /a has expired. This origin ignores If-None-Match, so
	// the revalidation refills the same bytes under new headers.
	mu.Lock()
	now = now.Add(2 * time.Hour)
	headers = map[string]string{"Cache-Control": "max-age=7200", "Content-Type": "application/x-second"}
	mu.Unlock()
	want(get("/a"), XCacheMiss, "application/x-second", "max-age=7200")
	evictA() // the disk already holds these bytes: the spill writes only the headers
	want(get("/a"), XCacheHit, "application/x-second", "max-age=7200")
}

// ---- the cache-decision oracle ----

// decideCase is one cache entry, as its origin response described it, met
// by one request at one age. A negative directive value means the directive
// is absent.
type decideCase struct {
	maxAge, sMaxAge, swr, sie int64 // seconds
	noCache                   bool
	// expires is Expires as seconds after the fill, used when expiresKind is
	// expiresDate; expiresInvalid sends "0".
	expires     int64
	expiresKind int
	age         time.Duration
	hash        int // hashAbsent, hashMatch or hashMismatch
	recovered   bool
}

const (
	expiresAbsent = iota
	expiresDate
	expiresInvalid
)

const (
	hashAbsent = iota
	hashMatch
	hashMismatch
)

func (c decideCase) String() string {
	return fmt.Sprintf("max-age=%d s-maxage=%d swr=%d sie=%d no-cache=%v expires=%d/%d age=%v hash=%d recovered=%v",
		c.maxAge, c.sMaxAge, c.swr, c.sie, c.noCache, c.expiresKind, c.expires, c.age, c.hash, c.recovered)
}

// decideFill is the instant every oracle entry was filled at.
var decideFill = time.Unix(1_700_000_000, 0)

// entry builds the entry the way the peer does: the origin's headers through
// metaFromHeaders, the recovered mark as cacheGet gives it.
func (c decideCase) entry() *entryMeta {
	var cc []string
	for _, d := range []struct {
		name string
		v    int64
	}{{"max-age", c.maxAge}, {"s-maxage", c.sMaxAge}, {"stale-while-revalidate", c.swr}, {"stale-if-error", c.sie}} {
		if d.v >= 0 {
			cc = append(cc, d.name+"="+strconv.FormatInt(d.v, 10))
		}
	}
	if c.noCache {
		cc = append(cc, "no-cache")
	}
	h := http.Header{}
	if len(cc) > 0 {
		h.Set("Cache-Control", strings.Join(cc, ", "))
	}
	switch c.expiresKind {
	case expiresDate:
		h.Set("Expires", decideFill.Add(time.Duration(c.expires)*time.Second).UTC().Format(http.TimeFormat))
	case expiresInvalid:
		h.Set("Expires", "0")
	}
	m := metaFromHeaders(h, "aa", decideFill)
	m.recovered = c.recovered
	return m
}

// expect is the hash the request carries.
func (c decideCase) expect() string {
	return [...]string{hashAbsent: "", hashMatch: "aa", hashMismatch: "bb"}[c.hash]
}

// rfcDecide is decide's specification, written from RFC 9111 and RFC 5861
// and the NoCDN hash-epoch rule rather than from decide. It also says
// whether stale-if-error lets an origin error be answered with the entry.
// It encodes the peer's rule where that departs from the RFCs, and says so
// at each of those cells, so that a change to either rule fails here until
// the oracle is changed with it.
func rfcDecide(c decideCase) (want serveDecision, sieServes bool) {
	// Freshness lifetime (RFC 9111 §4.2.1): s-maxage for a shared cache,
	// else max-age, else Expires minus the response's date — the fill, as
	// the origin here sends no Date. With max-age or s-maxage present
	// Expires is ignored (§5.3).
	var lifetime time.Duration
	known := true
	switch {
	case c.sMaxAge >= 0:
		lifetime = time.Duration(c.sMaxAge) * time.Second
	case c.maxAge >= 0:
		lifetime = time.Duration(c.maxAge) * time.Second
	case c.expiresKind == expiresDate:
		lifetime = max(0, time.Duration(c.expires)*time.Second)
	default:
		// No freshness information: heuristically fresh (§4.2.2), at any
		// age — this cache's heuristic, since a loader's hash still
		// decides what a loader gets.
		//
		// Known departure: an Expires that is not an HTTP date ("0")
		// lands here too. §5.3 reads it as already expired; the peer
		// ignores it and replays no Expires.
		known = false
	}
	// §4.2: fresh while the lifetime exceeds the age. Known departure: the
	// peer also counts an age equal to the lifetime as fresh, so max-age=0
	// or an Expires at the fill is a HIT within the fill's own instant.
	fresh := !known || lifetime >= c.age
	staleness := c.age - lifetime
	sieServes = known && c.sie >= 0 && staleness <= time.Duration(c.sie)*time.Second // RFC 5861 §4

	switch c.hash {
	case hashMatch:
		// Hash epoch: the bytes are the ones the wrapper names, so they
		// serve at any age; only a fresh entry with nothing to confirm
		// (no no-cache, headers not lost to a restart) is a plain HIT.
		if fresh && !c.noCache && !c.recovered {
			return decHit, sieServes
		}
		return decStaleEpoch, sieServes
	case hashMismatch:
		return decRefetch, sieServes // the wrapper moved on: never these bytes
	}
	if c.recovered || c.noCache {
		// no-cache: never served without validation (§5.2.2.4); a restart
		// lost the headers that would say otherwise.
		return decRevalidate, sieServes
	}
	if fresh {
		return decHit, sieServes
	}
	if c.swr >= 0 && staleness <= time.Duration(c.swr)*time.Second {
		return decStaleSWR, sieServes // RFC 5861 §3: serve, revalidate behind
	}
	return decRevalidate, sieServes
}

// checkDecide compares decide and withinSIE with the oracle on one case.
func checkDecide(t *testing.T, c decideCase) {
	t.Helper()
	m := c.entry()
	want, wantSIE := rfcDecide(c)
	if got := decide(m, c.expect(), c.age); got != want {
		t.Fatalf("%v: decide = %d, want %d", c, got, want)
	}
	if got := m.withinSIE(c.age); got != wantSIE {
		t.Fatalf("%v: withinSIE = %v, want %v", c, got, wantSIE)
	}
}

// TestDecideOracle checks decide against rfcDecide over every combination of
// directive values and ages chosen to sit on and beside each boundary: the
// lifetime, the end of each stale window, and Expires before, at and after
// the fill.
func TestDecideOracle(t *testing.T) {
	secs := []int64{-1, 0, 10}
	windows := []int64{-1, 0, 5}
	expires := []struct {
		kind int
		v    int64
	}{{expiresAbsent, 0}, {expiresDate, -10}, {expiresDate, 0}, {expiresDate, 10}, {expiresInvalid, 0}}
	var ages []time.Duration
	for _, s := range []time.Duration{0, 5 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second} {
		ages = append(ages, max(0, s-time.Nanosecond), s, s+time.Nanosecond)
	}
	ages = append(ages, time.Hour)
	n := 0
	for _, maxAge := range secs {
		for _, sMaxAge := range secs {
			for _, swr := range windows {
				for _, sie := range windows {
					for _, exp := range expires {
						for _, noCache := range []bool{false, true} {
							for hash := range 3 {
								for _, recovered := range []bool{false, true} {
									for _, age := range ages {
										checkDecide(t, decideCase{maxAge: maxAge, sMaxAge: sMaxAge, swr: swr, sie: sie,
											noCache: noCache, expires: exp.v, expiresKind: exp.kind, age: age, hash: hash, recovered: recovered})
										n++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", n)
}

// FuzzDecide checks decide against rfcDecide on arbitrary directive values
// (up to a day; a negative value drops the directive), Expires offsets and
// ages.
func FuzzDecide(f *testing.F) {
	f.Add(int64(60), int64(-1), int64(30), int64(300), false, int64(0), uint8(0), int64(75e9), uint8(0), false)
	f.Add(int64(-1), int64(-1), int64(-1), int64(-1), false, int64(-5), uint8(1), int64(0), uint8(0), false)
	f.Add(int64(0), int64(10), int64(-1), int64(-1), true, int64(0), uint8(2), int64(10e9), uint8(1), true)
	f.Fuzz(func(t *testing.T, maxAge, sMaxAge, swr, sie int64, noCache bool, expires int64, expiresKind uint8, age int64, hash uint8, recovered bool) {
		const day = 24 * 3600
		directive := func(v int64) int64 {
			if v < 0 {
				return -1
			}
			return v % (day + 1)
		}
		if age < 0 {
			age = -(age + 1)
		}
		checkDecide(t, decideCase{maxAge: directive(maxAge), sMaxAge: directive(sMaxAge), swr: directive(swr), sie: directive(sie),
			noCache: noCache, expires: expires % (2 * day), expiresKind: int(expiresKind % 3),
			age: time.Duration(age % (3 * day * int64(time.Second))), hash: int(hash % 3), recovered: recovered})
	})
}
