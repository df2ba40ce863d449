package nocdn

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// ReadFrom reads a streamed body the way net/http's own writer does, so a
// handler measured through a discardResponse does not pay for io.Copy's
// buffer.
func (d *discardResponse) ReadFrom(r io.Reader) (int64, error) {
	n, err := io.Copy(io.Discard, r)
	d.n += n
	return n, err
}

// TestBundleStreamsDiskEntries: a bundle item too large for the memory tier
// streams off its segment file as a single GET of it does, so a bundle that
// names one such entry many times holds no copy of it in memory. A
// bundle also resolves at most about maxBundleBytes of such bodies — the
// items past that answer -503 unserved — and may name at most
// maxBundleItems objects.
func TestBundleStreamsDiskEntries(t *testing.T) {
	big, small := obj(51, 300<<10), obj(52, 1<<10) // 300 KiB vs 4 KiB memory shards
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, map[string][]byte{"/big": big, "/small": small})
	s.get(t, "/big")
	s.get(t, "/small")
	fetches := s.fetches.Load()

	resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov?o=/big&h=&o=/small&h=")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	items, err := BundleItems(resp.Header.Get(BundleHeader), body)
	if err != nil || len(items) != 2 || !bytes.Equal(items[0], big) || !bytes.Equal(items[1], small) {
		t.Fatalf("bundle of /big and /small: %v, lengths %q", err, resp.Header.Get(BundleHeader))
	}
	if resp.ContentLength != int64(len(big)+len(small)) || resp.Header.Get(XCacheHeader) != XCacheHit {
		t.Errorf("Content-Length %d, X-Cache %q; want %d, HIT", resp.ContentLength, resp.Header.Get(XCacheHeader), len(big)+len(small))
	}
	if got := s.fetches.Load(); got != fetches {
		t.Errorf("origin fetched %d more times; a bundle of cached entries needs none", got-fetches)
	}

	h := s.peer.Handler()
	ask := func(n int) (w *discardResponse, allocated uint64) {
		req := httptest.NewRequest(http.MethodGet, "/proxy/prov?"+strings.Repeat("&o=/big&h=", n)[1:], nil)
		w = &discardResponse{header: http.Header{}}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		return w, after.TotalAlloc - before.TotalAlloc
	}
	w, allocated := ask(maxBundleItems)
	if w.status != 0 {
		t.Fatalf("a bundle of %d items answered %d", maxBundleItems, w.status)
	}
	served := 0
	for _, n := range strings.Split(w.header.Get(BundleHeader), ",") {
		switch n {
		case strconv.Itoa(len(big)):
			served++
		case "-503":
		default:
			t.Fatalf("item declared %s, want %d or -503", n, len(big))
		}
	}
	// The items that reach the budget, and at most one in flight per worker
	// beside the one that crossed it.
	reach := (maxBundleBytes + len(big) - 1) / len(big)
	if served < reach || served > reach+DefaultConcurrency-1 || w.n != int64(served*len(big)) {
		t.Errorf("%d items served in %d bytes; want %d to %d, of %d bytes each",
			served, w.n, reach, reach+DefaultConcurrency-1, len(big))
	}
	// Reading the items whole would allocate every byte served; streaming
	// allocates per item and per worker, not per byte.
	if allocated >= uint64(w.n) {
		t.Errorf("a bundle naming a %d-byte disk entry %d times allocated %d bytes to serve %d",
			len(big), maxBundleItems, allocated, w.n)
	}
	if w, _ := ask(maxBundleItems + 1); w.status != http.StatusBadRequest {
		t.Errorf("a bundle of %d items answered %d, want 400", maxBundleItems+1, w.status)
	}
	if got := s.fetches.Load(); got != fetches {
		t.Errorf("origin fetched %d more times", got-fetches)
	}
}

// TestBundleFillSpans: each object a bundle fills from the origin records
// an origin_fill span naming its path under the bundle's one proxy span, so
// a fill stays attributable to its object; a hit records none.
func TestBundleFillSpans(t *testing.T) {
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, map[string][]byte{"/big": obj(53, 300<<10), "/small": obj(54, 1<<10)})
	tr := hpop.NewTracer(64)
	s.peer.SetTracer(tr)
	for range 2 {
		resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov?o=/big&h=&o=/small&h=")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var proxies []uint64
	fills, n := map[string]uint64{}, 0
	for _, sp := range tr.Recent(64) {
		switch sp.Name {
		case "proxy":
			proxies = append(proxies, sp.ID)
		case "origin_fill":
			fills[sp.Labels["path"]] = sp.ParentID
			n++
		}
	}
	if len(proxies) != 2 || n != 2 || len(fills) != 2 {
		t.Fatalf("%d proxy spans, %d fills %v; want 2, and one fill each for /big and /small", len(proxies), n, fills)
	}
	for path, parent := range fills {
		if parent != proxies[0] && parent != proxies[1] {
			t.Errorf("the fill of %s is not under a bundle's proxy span", path)
		}
	}
	if fills["/big"] != fills["/small"] {
		t.Error("the two fills are under different proxy spans; both were the first bundle's")
	}
}

// throttled writes each response 32 KiB at a time, pausing before each
// piece: a peer on a slow uplink.
func throttled(next http.Handler, pause time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(slowWriter{w, pause}, r)
	})
}

type slowWriter struct {
	http.ResponseWriter
	pause time.Duration
}

func (s slowWriter) Write(b []byte) (int, error) {
	n := 0
	for len(b) > 0 {
		piece := b[:min(len(b), 32<<10)]
		time.Sleep(s.pause)
		k, err := s.ResponseWriter.Write(piece)
		n += k
		if err != nil {
			return n, err
		}
		s.ResponseWriter.(http.Flusher).Flush()
		b = b[len(piece):]
	}
	return n, nil
}

// TestBundleSlowPeer: a peer on a slow uplink sends each of its eight
// 256 KiB objects well inside FetchTimeout, but not all eight in one
// response. The loader asks for them in bundles of at most maxBundleBytes,
// so every attempt is one of those, no attempt runs out of time, and
// nothing falls back to the origin.
func TestBundleSlowPeer(t *testing.T) {
	const size = 256 << 10
	o := NewOrigin("example.com", WithRNG(sim.NewRNG(3)))
	var embedded []string
	for i := 0; i < 8; i++ {
		path := fmt.Sprintf("/o/%d", i)
		o.AddObject(path, obj(60+i, size))
		if i > 0 {
			embedded = append(embedded, path)
		}
	}
	if err := o.AddPage(Page{Name: "slow", Container: "/o/0", Embedded: embedded}); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	t.Cleanup(originSrv.Close)
	p := NewPeer("peer-slow", 0)
	p.SignUp("example.com", originSrv.URL)
	// 15 ms per 32 KiB: an object takes ~120 ms, a 1 MiB bundle ~480 ms,
	// all eight objects at once ~960 ms.
	var bundles, largest atomic.Int64
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := int64(len(r.URL.Query()["o"])); n > 0 {
			bundles.Add(1)
			for cur := largest.Load(); n > cur && !largest.CompareAndSwap(cur, n); cur = largest.Load() {
			}
		}
		throttled(p.Handler(), 15*time.Millisecond).ServeHTTP(w, r)
	}))
	t.Cleanup(peerSrv.Close)
	o.RegisterPeer(p.ID, peerSrv.URL, 10)

	metrics := hpop.NewMetrics()
	l := &Loader{
		OriginURL:    originSrv.URL,
		FetchTimeout: 750 * time.Millisecond,
		Retry:        faults.Policy{MaxAttempts: 1},
		Metrics:      metrics,
	}
	res, err := l.LoadPage("slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FallbackObjects) != 0 || res.PeerBytes[p.ID] != 8*size || metrics.Counter("nocdn.loader.giveups") != 0 {
		t.Fatalf("fallbacks %v, %d bytes from the peer, %v giveups; want none, %d, 0",
			res.FallbackObjects, res.PeerBytes[p.ID], metrics.Counter("nocdn.loader.giveups"), 8*size)
	}
	if got, want := largest.Load(), int64(maxBundleBytes/size); bundles.Load() != 2 || got != want {
		t.Errorf("%d bundles of at most %d objects, want 2 of %d", bundles.Load(), got, want)
	}
}
