package nocdn

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// BenchmarkWarmPageLoad measures a full Fig. 2 page view against warm peer
// caches: wrapper fetch + 5 object fetches + hash checks + usage records,
// all over real HTTP.
func BenchmarkWarmPageLoad(b *testing.B) {
	o := NewOrigin("bench.example", WithRNG(sim.NewRNG(1)))
	o.AddObject("/index.html", make([]byte, 4<<10))
	page := Page{Name: "p", Container: "/index.html"}
	for _, name := range []string{"/a", "/b", "/c", "/d"} {
		o.AddObject(name, make([]byte, 16<<10))
		page.Embedded = append(page.Embedded, name)
	}
	if err := o.AddPage(page); err != nil {
		b.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	for i := 0; i < 3; i++ {
		p := NewPeer("p", 0)
		p.SignUp("bench.example", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		o.RegisterPeer(p.ID, srv.URL, 10)
	}
	loader := &Loader{OriginURL: originSrv.URL}
	// Warm all peers.
	for i := 0; i < 6; i++ {
		if _, err := loader.LoadPage("p"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loader.LoadPage("p"); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4<<10 + 4*16<<10)
}

// withLatency wraps a handler with a fixed per-request service delay,
// modeling the network RTT to a residential peer so the serial-vs-parallel
// comparison reflects real transfer overlap rather than loopback syscalls.
func withLatency(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		h.ServeHTTP(w, r)
	})
}

// BenchmarkConcurrentPageLoad measures the tentpole speedup: one 12-object
// page loaded with the serial loader (concurrency 1) vs the fanned-out
// loader (concurrency 6) against peers with a 1 ms service latency. The
// acceptance bar is >= 2x at concurrency 6 with identical PeerBytes totals
// (asserted in TestConcurrentLoadPageMatchesSerial).
func BenchmarkConcurrentPageLoad(b *testing.B) {
	const (
		objects     = 12
		objectBytes = 16 << 10
		peerLatency = time.Millisecond
	)
	setup := func(b *testing.B) (*Loader, func()) {
		b.Helper()
		o := NewOrigin("bench.example", WithRNG(sim.NewRNG(1)))
		o.AddObject("/index.html", make([]byte, 4<<10))
		page := Page{Name: "p", Container: "/index.html"}
		for i := 0; i < objects; i++ {
			name := fmt.Sprintf("/obj/%02d", i)
			o.AddObject(name, make([]byte, objectBytes))
			page.Embedded = append(page.Embedded, name)
		}
		if err := o.AddPage(page); err != nil {
			b.Fatal(err)
		}
		originSrv := httptest.NewServer(o.Handler())
		var peerSrvs []*httptest.Server
		for i := 0; i < 4; i++ {
			p := NewPeer(fmt.Sprintf("p%d", i), 0)
			p.SignUp("bench.example", originSrv.URL)
			srv := httptest.NewServer(withLatency(p.Handler(), peerLatency))
			peerSrvs = append(peerSrvs, srv)
			o.RegisterPeer(p.ID, srv.URL, 10)
		}
		loader := &Loader{OriginURL: originSrv.URL}
		// Warm all peers so the measurement is pure peer-serving overlap.
		for i := 0; i < 8; i++ {
			if _, err := loader.LoadPage("p"); err != nil {
				b.Fatal(err)
			}
		}
		return loader, func() {
			for _, s := range peerSrvs {
				s.Close()
			}
			originSrv.Close()
		}
	}
	for _, conc := range []int{1, 6} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			loader, teardown := setup(b)
			defer teardown()
			loader.Concurrency = conc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := loader.LoadPage("p"); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(4<<10 + objects*objectBytes)
		})
	}
}

// BenchmarkPeerProxyThroughput measures one peer serving a warm object to
// many concurrent clients — the sharded-cache + atomic-stats hot path.
func BenchmarkPeerProxyThroughput(b *testing.B) {
	o := NewOrigin("bench.example", WithRNG(sim.NewRNG(1)))
	payload := make([]byte, 32<<10)
	for i := 0; i < 16; i++ {
		o.AddObject(fmt.Sprintf("/o%02d", i), payload)
	}
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	p := NewPeer("p", 0)
	p.SignUp("bench.example", originSrv.URL)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	// Warm every object.
	client := srv.Client()
	for i := 0; i < 16; i++ {
		resp, err := client.Get(srv.URL + fmt.Sprintf("/proxy/bench.example/o%02d", i))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := client.Get(srv.URL + fmt.Sprintf("/proxy/bench.example/o%02d", i%16))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			i++
		}
	})
	b.SetBytes(32 << 10)
}

// BenchmarkPeerOriginBackfill measures the peer's miss path — origin fetch,
// body read, cache fill — with a unique key per iteration so every request
// is a cold miss. The interesting number is B/op: the origin declares its
// length, as Origin's /content does, so the fill is one exact-size read into
// the slice the cache keeps.
func BenchmarkPeerOriginBackfill(b *testing.B) {
	payload := make([]byte, 64<<10)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	defer origin.Close()
	p := NewPeer("p", 1<<30)
	p.SignUp("bench.example", origin.URL)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(srv.URL + fmt.Sprintf("/proxy/bench.example/cold/%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.SetBytes(64 << 10)
}

func BenchmarkWrapperGeneration(b *testing.B) {
	o := NewOrigin("bench.example", WithRNG(sim.NewRNG(1)))
	o.AddObject("/i", make([]byte, 1024))
	page := Page{Name: "p", Container: "/i"}
	o.AddPage(page)
	for i := 0; i < 20; i++ {
		o.RegisterPeer(peerID(i%26), "http://p", 10)
	}
	if _, err := o.AssignWrapper("p", "c"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.EpochTick() // rebuilds the one filled slot
	}
}

// pageStack is an origin and its peers over loopback with one page "p"
// published, every peer warm, and a pooled-path loader on a keep-alive
// transport — bench/'s workloads A and B in miniature, for `go test -bench`
// and the allocation budget.
type pageStack struct {
	origin  *Origin
	loader  *Loader
	payload int64 // bytes one view renders
}

// newPageStack publishes objects × objectBytes of seeded bytes on peers
// peers. peerMem sizes the memory tier; diskTier adds a segment store, so
// objects larger than a memory shard live there and stream off the segment files.
func newPageStack(tb testing.TB, objects, objectBytes, peers, peerMem int, diskTier bool, opts ...OriginOption) *pageStack {
	tb.Helper()
	rng := sim.NewRNG(1)
	o := NewOrigin("bench.example", append([]OriginOption{WithRNG(sim.NewRNG(1))}, opts...)...)
	page := Page{Name: "p"}
	for i := 0; i < objects; i++ {
		data := make([]byte, objectBytes)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		name := fmt.Sprintf("/obj/%02d", i)
		o.AddObject(name, data)
		if i == 0 {
			page.Container = name
		} else {
			page.Embedded = append(page.Embedded, name)
		}
	}
	if err := o.AddPage(page); err != nil {
		tb.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	tb.Cleanup(originSrv.Close)
	for i := 0; i < peers; i++ {
		p := NewPeer(fmt.Sprintf("home-%d", i), peerMem)
		if diskTier {
			if err := p.AttachDiskCache(tb.TempDir(), 256<<20, 8<<20); err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(p.CloseDiskCache)
		}
		p.SignUp("bench.example", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		tb.Cleanup(srv.Close)
		o.RegisterPeer(p.ID, srv.URL, 10)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: DefaultConcurrency}
	tb.Cleanup(tr.CloseIdleConnections)
	s := &pageStack{
		origin:  o,
		loader:  &Loader{OriginURL: originSrv.URL, ClientID: "bench", HTTPClient: &http.Client{Transport: tr}},
		payload: int64(objects * objectBytes),
	}
	for i := 0; i < 3; i++ { // fill the peers, then the connection pool
		s.view(tb)
	}
	return s
}

// view loads the page once and insists on a whole, peer-served view.
func (s *pageStack) view(tb testing.TB) {
	res, err := s.loader.LoadPage("p")
	if err != nil {
		tb.Fatal(err)
	}
	if res.TotalBytes() != s.payload || len(res.FallbackObjects) != 0 {
		tb.Fatalf("view rendered %d of %d bytes with fallbacks %v", res.TotalBytes(), s.payload, res.FallbackObjects)
	}
}

func newSmallPageStack(tb testing.TB) *pageStack {
	return newPageStack(tb, 25, 8<<10, 4, 64<<20, false)
}

func newChunkedPageStack(tb testing.TB) *pageStack {
	return newPageStack(tb, 2, 4<<20, 4, 8<<20, true, WithChunking(4, 1<<20))
}

func benchmarkLoadPage(b *testing.B, s *pageStack) {
	b.SetBytes(s.payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.view(b)
	}
}

// BenchmarkLoadPageSmall is workload A's view: 25 × 8 KiB from four peers'
// memory tiers. B/op and allocs/op count the whole in-process stack (loader,
// peers, net/http on both sides), as bench/'s alloc_kb_per_op does.
func BenchmarkLoadPageSmall(b *testing.B) { benchmarkLoadPage(b, newSmallPageStack(b)) }

// BenchmarkLoadPageChunked is workload B's view: 2 × 4 MiB, each in four
// 1 MiB Range chunks over four peers, streamed from the segment store.
func BenchmarkLoadPageChunked(b *testing.B) { benchmarkLoadPage(b, newChunkedPageStack(b)) }

// BenchmarkWrapperServe is one pooled /wrapper hit through Origin.Handler():
// assignment lookup, per-serve charges, and the write of the entry's
// pre-encoded bytes.
func BenchmarkWrapperServe(b *testing.B) {
	h := newSmallPageStack(b).origin.Handler()
	req := httptest.NewRequest(http.MethodGet, "/wrapper?page=p&client=bench", nil)
	var served int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /wrapper = %d", rec.Code)
		}
		served = rec.Body.Len()
	}
	b.SetBytes(int64(served))
}

// discardResponse is a ResponseWriter that counts the body and keeps nothing,
// so a handler benchmark measures the handler and not a recorder's buffer.
type discardResponse struct {
	header http.Header
	status int
	n      int64
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.status = code }
func (d *discardResponse) Write(b []byte) (int, error) {
	d.n += int64(len(b))
	return len(b), nil
}

// BenchmarkPeerStreamRange is workload B's peer-side unit of work: one
// 1 MiB Range of a 4 MiB object that lives in the segment store, through
// Peer.Handler() — at-rest verification of what the response carries, then
// the copy off the segment file. hashed-B/op is the count that repeats
// exactly: how many bytes one serve read through SHA-256.
func BenchmarkPeerStreamRange(b *testing.B) {
	const size, chunk = 4 << 20, 1 << 20
	rng := sim.NewRNG(1)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	}))
	defer origin.Close()
	p := NewPeer("p", 8<<20) // 512 KiB shards: the object streams from disk
	if err := p.AttachDiskCache(b.TempDir(), 256<<20, 8<<20); err != nil {
		b.Fatal(err)
	}
	defer p.CloseDiskCache()
	p.SignUp("bench.example", origin.URL)
	h := p.Handler()
	serve := func(i int) {
		req := httptest.NewRequest(http.MethodGet, "/proxy/bench.example/big", nil)
		off := i % (size / chunk) * chunk
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+chunk-1))
		w := &discardResponse{header: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.status != http.StatusPartialContent || w.n != chunk {
			b.Fatalf("chunk at %d: status %d, %d bytes", off, w.status, w.n)
		}
	}
	serve(0) // fill from the origin
	serve(1) // first streamed serve: the whole-object pass
	st := p.store.Load()
	hashed := st.hashed.Load()
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
	b.ReportMetric(float64(st.hashed.Load()-hashed)/float64(b.N), "hashed-B/op")
	if p.OriginFetches() != 1 {
		b.Fatalf("%d origin fetches, want the one fill", p.OriginFetches())
	}
}

// countingTransport counts the requests it carries, by route.
type countingTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	seen map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := req.URL.Path
	if strings.HasPrefix(route, "/proxy/") {
		route = "/proxy/"
	}
	c.mu.Lock()
	c.seen[route]++
	c.mu.Unlock()
	return c.next.RoundTrip(req)
}

// TestSmallPageRequestsPerView: a warm view of the small page costs the
// wrapper, one bundle per serving peer and one record per serving peer —
// 1 + 4 + 4 requests for 25 objects on four peers.
func TestSmallPageRequestsPerView(t *testing.T) {
	s := newSmallPageStack(t)
	ct := &countingTransport{next: s.loader.HTTPClient.Transport, seen: map[string]int{}}
	s.loader.HTTPClient = &http.Client{Transport: ct}
	res, err := s.loader.LoadPage("p")
	if err != nil {
		t.Fatal(err)
	}
	peers := len(res.PeerBytes)
	if peers != 4 || res.RecordsDelivered != peers || len(res.FallbackObjects) != 0 {
		t.Fatalf("%d serving peers, %d records, fallbacks %v; want 4, 4, none", peers, res.RecordsDelivered, res.FallbackObjects)
	}
	want := map[string]int{"/wrapper": 1, "/proxy/": peers, "/record": res.RecordsDelivered}
	if !maps.Equal(ct.seen, want) {
		t.Errorf("a view made %v requests, want %v", ct.seen, want)
	}
}

// TestLoadPageAllocBudget holds a warm page view to an allocation budget
// measured the way bench/ measures alloc_kb_per_op — the whole process's
// TotalAlloc — as a multiple of the bytes the view renders. A view used to
// allocate ~6× its payload (io.ReadAll's doubling growth, then a copy into
// the assembly buffer); every body is now read once into memory sized by
// the wrapper. What is left beside the payload weighs most on the small
// page: per request, net/http on both sides and the records; per view, one
// string copy of the wrapper body that its decoded strings share; per
// bundle, the peer's and the loader's bookkeeping; per object, only the two
// names a peer's serve builds (TestPageViewAllocCount counts them). Under
// -race the views still run and the ratio is logged, but not judged.
func TestLoadPageAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stack  func(testing.TB) *pageStack
		budget float64
	}{
		{"small page, memory tier", newSmallPageStack, 2.0},
		{"chunked page, disk tier", newChunkedPageStack, 1.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.stack(t)
			const views = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < views; i++ {
				s.view(t)
			}
			runtime.ReadMemStats(&after)
			perView := float64(after.TotalAlloc-before.TotalAlloc) / views
			ratio := perView / float64(s.payload)
			t.Logf("%.0f KiB allocated per %d KiB view: %.2f× payload (budget %.1f×)",
				perView/1024, s.payload>>10, ratio, tc.budget)
			if ratio > tc.budget && !raceEnabled {
				t.Errorf("a view allocates %.2f× its payload, budget %.1f×", ratio, tc.budget)
			}
		})
	}
}

// pageViewMallocs is the allocation budget of one warm view of the small
// page (newSmallPageStack): 25 objects from four peers, counted over the
// whole process — loader, peers, origin and net/http on both sides. A view
// made 1,519 allocations when the loader and the peers still built a name,
// a map or a slice for each object, and 1,113 when encoding/json still
// decoded the wrapper and net/http still canonicalized the NoCDN header
// names; 962–965 are left, and the budget keeps the same 2% margin over them.
const pageViewMallocs = 981

// TestPageViewAllocCount holds a warm small-page view to pageViewMallocs,
// and a peer's bundle to allocations that do not grow with its items beyond
// the two names an item's serve builds (its cache key and its hot-key
// name): a bundle of many in-memory items allocates no more per item than a
// bundle of one. The counts are the runtime's mallocs, which repeat to
// within a few per view; the race detector's runtime allocates on its own,
// so the test is skipped under -race.
func TestPageViewAllocCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not judged under -race")
	}
	s := newSmallPageStack(t)
	const views = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < views; i++ {
		s.view(t)
	}
	runtime.ReadMemStats(&after)
	perView := float64(after.Mallocs-before.Mallocs) / views
	t.Logf("%.1f allocations per view (budget %d)", perView, pageViewMallocs)
	if perView > pageViewMallocs {
		t.Errorf("a warm view of the small page made %.1f allocations, budget %d", perView, pageViewMallocs)
	}

	const items = 16
	objects := make(map[string][]byte, items)
	for i := 0; i < items; i++ {
		objects[fmt.Sprintf("/o/%02d", i)] = make([]byte, 8<<10)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(objects[strings.TrimPrefix(r.URL.Path, "/content")])
	}))
	defer origin.Close()
	p := NewPeer("p", 64<<20)
	p.SetMetrics(hpop.NewMetrics())
	p.EnableTelemetry(0)
	p.SignUp("bench.example", origin.URL)
	h := p.Handler()
	bundle := func(n int) *http.Request {
		var q strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&q, "&o=/o/%02d&h=%s", i, HashBytes(objects[fmt.Sprintf("/o/%02d", i)]))
		}
		return httptest.NewRequest(http.MethodGet, "/proxy/bench.example?"+q.String()[1:], nil)
	}
	serve := func(req *http.Request, n int) {
		w := &discardResponse{header: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.status != 0 || w.n != int64(n*8<<10) {
			t.Fatalf("bundle of %d answered %d with %d bytes", n, w.status, w.n)
		}
	}
	one, many := bundle(1), bundle(items)
	serve(many, items) // fill every item from the origin
	allocsOne := testing.AllocsPerRun(100, func() { serve(one, 1) })
	allocsMany := testing.AllocsPerRun(100, func() { serve(many, items) })
	perItem := (allocsMany - allocsOne) / (items - 1)
	t.Logf("a bundle of 1 item: %.0f allocations; of %d: %.0f, %.1f per item past the first", allocsOne, items, allocsMany, perItem)
	if allocsMany/items > allocsOne || perItem > 2 {
		t.Errorf("a bundle of %d in-memory items made %.0f allocations, of one %.0f: %.1f per item past the first, want at most 2",
			items, allocsMany, allocsOne, perItem)
	}
}
