package nocdn

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hpop/internal/sim"
)

// TestPeerConcurrentHammer drives one peer with parallel proxy fetches,
// record drops, and flushes — the -race regression test for the sharded
// cache, atomic stats, and split record queue.
func TestPeerConcurrentHammer(t *testing.T) {
	s := newTestSite(t, 1)
	peer, peerSrv := s.peers[0], s.peerSrvs[0]
	paths := []string{"/index.html", "/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"}

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // proxy fetchers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := paths[(w+i)%len(paths)]
				resp, err := http.Get(peerSrv.URL + "/proxy/example.com" + path)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("proxy status %d", resp.StatusCode)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() { // record droppers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := UsageRecord{Provider: "example.com", PeerID: peer.ID, Bytes: 1}
				resp, err := http.Post(peerSrv.URL+"/record", "text/plain", bytes.NewReader(rec.LeafBytes()))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() { // flushers
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				if _, err := peer.Flush(s.originSrv.URL); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, served := peer.Stats()
	if hits+misses != workers*iters {
		t.Errorf("hits+misses = %d, want %d", hits+misses, workers*iters)
	}
	if served == 0 {
		t.Error("no bytes served")
	}
	// Drain any leftover records; they must all settle or reject cleanly.
	if _, err := peer.Flush(s.originSrv.URL); err != nil {
		t.Fatal(err)
	}
	if peer.PendingRecords() != 0 {
		t.Error("records linger after final flush")
	}
}

// TestMissCoalescing checks that N concurrent requests for one uncached
// object trigger exactly one origin fetch.
func TestMissCoalescing(t *testing.T) {
	var contentHits atomic.Int64
	payload := bytes.Repeat([]byte("x"), 32<<10)
	slow := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		contentHits.Add(1)
		<-slow // hold every waiter in the flight group until all have queued
		w.Write(payload)
	}))
	defer origin.Close()

	p := NewPeer("p", 0)
	p.SignUp("prov", origin.URL)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			resp, err := http.Get(srv.URL + "/proxy/prov/obj")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(slow)
	wg.Wait()

	if got := p.OriginFetches(); got != 1 {
		t.Errorf("origin fetches = %d, want 1 (coalesced)", got)
	}
	if got := contentHits.Load(); got != 1 {
		t.Errorf("origin handler hit %d times, want 1", got)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, payload) {
			t.Fatalf("request %d got wrong body (%d bytes)", i, len(b))
		}
	}
	// Every request either missed (and coalesced) or hit a cache the
	// coalesced fetch had already filled; nothing is double-counted.
	hits, misses, _ := p.Stats()
	if misses < 1 || hits+misses != n {
		t.Errorf("hits=%d misses=%d, want them to sum to %d with >=1 miss", hits, misses, n)
	}
}

// TestConcurrentLoadPageMatchesSerial verifies the acceptance criterion
// that the concurrent loader produces byte-identical results and identical
// PeerBytes attribution to the serial loader.
func TestConcurrentLoadPageMatchesSerial(t *testing.T) {
	serialSite := newTestSite(t, 3)
	serialSite.loader.Concurrency = 1
	serial, err := serialSite.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}

	concSite := newTestSite(t, 3)
	concSite.loader.Concurrency = 6
	conc, err := concSite.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}

	// Identical wrapper RNG seed -> identical assignment -> identical
	// attribution and body.
	if !reflect.DeepEqual(serial.PeerBytes, conc.PeerBytes) {
		t.Errorf("attribution differs: serial %v vs concurrent %v", serial.PeerBytes, conc.PeerBytes)
	}
	if serial.TotalBytes() != conc.TotalBytes() {
		t.Errorf("total bytes differ: %d vs %d", serial.TotalBytes(), conc.TotalBytes())
	}
	for path, body := range serial.Body {
		if !bytes.Equal(body, conc.Body[path]) {
			t.Errorf("object %s differs between serial and concurrent load", path)
		}
	}
	if serial.RecordsDelivered != conc.RecordsDelivered {
		t.Errorf("records delivered differ: %d vs %d", serial.RecordsDelivered, conc.RecordsDelivered)
	}
}

// TestConcurrentChunkedFetch exercises the chunk fan-out path under -race:
// disjoint buffer ranges assembled by parallel workers.
func TestConcurrentChunkedFetch(t *testing.T) {
	o := NewOrigin("big.com", WithRNG(sim.NewRNG(3)), WithChunking(4, 1000))
	big := make([]byte, 200000)
	for i := range big {
		big[i] = byte(i % 251)
	}
	o.AddObject("/big.bin", big)
	o.AddPage(Page{Name: "dl", Container: "/big.bin"})
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	for i := 0; i < 4; i++ {
		p := NewPeer(peerID(i), 0)
		p.SignUp("big.com", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		o.RegisterPeer(peerID(i), srv.URL, 10)
	}
	loader := &Loader{OriginURL: originSrv.URL, Concurrency: 8}
	const loads = 4
	var wg sync.WaitGroup
	for i := 0; i < loads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := loader.LoadPage("dl")
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(res.Body["/big.bin"], big) {
				t.Error("chunked reassembly corrupted data")
			}
		}()
	}
	wg.Wait()
}

// truncatingHandler serves only the first half of every response body — a
// peer that reliably fails mid-transfer (clean EOF short of the promised
// range), which the loader's chunk-length and hash checks must catch.
type truncatingHandler struct{ inner http.Handler }

func (h truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	body := rec.Body.Bytes()
	w.Write(body[:len(body)/2])
}

// TestFaultLoaderFallbackOrderingAcrossConcurrency pins the determinism
// contract under partial peer failure: with identical wrapper assignments
// (the ring is a pure function of the fleet) and peers that fail mid-chunk, Body, PeerBytes,
// FallbackObjects, and TamperDetected must be identical whether the loader
// runs serially or fans out — fallback handling must not depend on fetch
// interleaving.
func TestFaultLoaderFallbackOrderingAcrossConcurrency(t *testing.T) {
	load := func(t *testing.T, concurrency int) *PageResult {
		t.Helper()
		// Mixed layout: /index.html stays whole, images chunk across 2
		// peers. Peers 2 and 3 truncate everything they serve, so chunks
		// they carry fail the length check and whole objects they carry
		// fail the hash check — both must route to origin fallback.
		o := NewOrigin("example.com", WithRNG(sim.NewRNG(11)), WithChunking(2, 5000))
		o.AddObject("/index.html", bytes.Repeat([]byte("<html>"), 500))
		for _, suffix := range []string{"a", "b", "c", "d"} {
			o.AddObject("/img/"+suffix+".png", bytes.Repeat([]byte(suffix), 10000))
		}
		if err := o.AddPage(Page{
			Name:      "home",
			Container: "/index.html",
			Embedded:  []string{"/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"},
		}); err != nil {
			t.Fatal(err)
		}
		originSrv := httptest.NewServer(o.Handler())
		t.Cleanup(originSrv.Close)
		for i := 0; i < 4; i++ {
			p := NewPeer(peerID(i), 0)
			p.SignUp("example.com", originSrv.URL)
			var h http.Handler = p.Handler()
			if i >= 2 {
				h = truncatingHandler{inner: h}
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			o.RegisterPeer(peerID(i), srv.URL, 10)
		}
		loader := &Loader{OriginURL: originSrv.URL, Concurrency: concurrency}
		res, err := loader.LoadPage("home")
		if err != nil {
			t.Fatalf("concurrency %d: %v", concurrency, err)
		}
		return res
	}

	baseline := load(t, 1)
	// The scenario must actually exercise both paths: some objects fall
	// back, some peers still earn credit.
	if len(baseline.FallbackObjects) == 0 {
		t.Fatal("no fallbacks at concurrency 1 — truncating peers not assigned?")
	}
	if len(baseline.PeerBytes) == 0 {
		t.Fatal("no peer credit at concurrency 1 — every object fell back?")
	}
	for path, want := range map[string][]byte{
		"/index.html": bytes.Repeat([]byte("<html>"), 500),
		"/img/a.png":  bytes.Repeat([]byte("a"), 10000),
	} {
		if !bytes.Equal(baseline.Body[path], want) {
			t.Fatalf("baseline content wrong for %s", path)
		}
	}

	for _, concurrency := range []int{6, 16} {
		res := load(t, concurrency)
		if !reflect.DeepEqual(res.FallbackObjects, baseline.FallbackObjects) {
			t.Errorf("concurrency %d: FallbackObjects %v, serial baseline %v",
				concurrency, res.FallbackObjects, baseline.FallbackObjects)
		}
		if !reflect.DeepEqual(res.PeerBytes, baseline.PeerBytes) {
			t.Errorf("concurrency %d: PeerBytes %v, serial baseline %v",
				concurrency, res.PeerBytes, baseline.PeerBytes)
		}
		if res.TamperDetected != baseline.TamperDetected {
			t.Errorf("concurrency %d: TamperDetected %v, serial baseline %v",
				concurrency, res.TamperDetected, baseline.TamperDetected)
		}
		for path, body := range baseline.Body {
			if !bytes.Equal(res.Body[path], body) {
				t.Errorf("concurrency %d: object %s differs from serial baseline", concurrency, path)
			}
		}
		if res.RecordsDelivered != baseline.RecordsDelivered {
			t.Errorf("concurrency %d: records %d, serial baseline %d",
				concurrency, res.RecordsDelivered, baseline.RecordsDelivered)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOriginConcurrentMixedLoad hits one origin with parallel wrapper
// generations, content fetches, and settlements — the lock-split regression
// test (-race catches any missed guard).
func TestOriginConcurrentMixedLoad(t *testing.T) {
	s := newTestSite(t, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // wrapper generations
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.origin.AssignWrapper("home", "c"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // content serving
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(s.originSrv.URL + "/content/img/b.png")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() { // full page loads + settlement
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := s.loader.LoadPage("home"); err != nil {
					t.Error(err)
					return
				}
				for _, p := range s.peers {
					if _, err := p.Flush(s.originSrv.URL); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Sanity: honest peers were never suspended by the mixed load.
	for i := range s.peers {
		if s.origin.AccountingFor(peerID(i)).Suspended {
			t.Errorf("honest peer %s suspended under concurrent load", peerID(i))
		}
	}
}
