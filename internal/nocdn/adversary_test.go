package nocdn_test

// The tests that drive a dishonest peer. They sit outside package nocdn
// because the attacks do: internal/adversary builds them around the seams a
// Peer exposes (its Handler, its outbound client, its cache directory) and
// imports this package to do it.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"hpop/internal/adversary"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// attackSite is newTestSite's site — one "home" page of five objects, n
// peers, the seeded origin — with every peer served through an
// adversary.Tamper, off until a test switches it on.
type attackSite struct {
	origin    *nocdn.Origin
	originSrv *httptest.Server
	peers     []*nocdn.Peer
	tampers   []*adversary.Tamper
	peerSrvs  []*httptest.Server
	loader    *nocdn.Loader
}

func newAttackSite(t *testing.T, peerCount int) *attackSite {
	t.Helper()
	o := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)))
	o.AddObject("/index.html", bytes.Repeat([]byte("<html>"), 500))
	page := nocdn.Page{Name: "home", Container: "/index.html"}
	for _, suffix := range []string{"a", "b", "c", "d"} {
		o.AddObject("/img/"+suffix+".png", bytes.Repeat([]byte(suffix), 10000))
		page.Embedded = append(page.Embedded, "/img/"+suffix+".png")
	}
	if err := o.AddPage(page); err != nil {
		t.Fatal(err)
	}
	s := &attackSite{origin: o, originSrv: httptest.NewServer(o.Handler())}
	t.Cleanup(s.originSrv.Close)
	for i := 0; i < peerCount; i++ {
		p := nocdn.NewPeer("peer-"+string(rune('a'+i)), 0)
		p.SignUp("example.com", s.originSrv.URL)
		s.addPeer(t, p, float64(10+i*20))
	}
	s.loader = &nocdn.Loader{OriginURL: s.originSrv.URL}
	return s
}

// addPeer serves p through a Tamper and registers it.
func (s *attackSite) addPeer(t *testing.T, p *nocdn.Peer, rtt float64) {
	t.Helper()
	tamper := &adversary.Tamper{Next: p.Handler()}
	srv := httptest.NewServer(tamper)
	t.Cleanup(srv.Close)
	s.peers = append(s.peers, p)
	s.tampers = append(s.tampers, tamper)
	s.peerSrvs = append(s.peerSrvs, srv)
	s.origin.RegisterPeer(p.ID, srv.URL, rtt)
}

// get fetches url with optional header pairs and returns the response with
// its body drained.
func (s *attackSite) get(t *testing.T, url string, hdr ...string) []byte {
	t.Helper()
	_, body := s.do(t, url, hdr...)
	return body
}

func (s *attackSite) do(t *testing.T, url string, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestTamperingPeerDetectedAndFallback(t *testing.T) {
	s := newAttackSite(t, 2)
	s.tampers[0].On.Store(true)
	s.tampers[1].On.Store(true)
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TamperDetected {
		t.Fatal("tampering not detected")
	}
	if len(res.FallbackObjects) == 0 {
		t.Fatal("no origin fallbacks despite tampering")
	}
	// The page is still correct.
	if !bytes.Equal(res.Body["/img/b.png"], bytes.Repeat([]byte("b"), 10000)) {
		t.Error("assembled page corrupted despite verification")
	}
	// Tampering peers earned no credit for corrupted objects.
	for peer, n := range res.PeerBytes {
		if n > 0 {
			t.Errorf("tampering peer %s credited %d bytes", peer, n)
		}
	}
}

func TestInflatedRecordsRejected(t *testing.T) {
	s := newAttackSite(t, 1)
	// Doubles Bytes on the way out, invalidating signatures.
	s.peers[0].SetHTTPClient(&http.Client{Transport: &adversary.Records{Inflate: true}})
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	s.peers[0].Flush(s.originSrv.URL)
	acc := s.origin.AccountingFor(s.peers[0].ID)
	if acc.CreditedBytes != 0 {
		t.Errorf("inflated records credited %d bytes", acc.CreditedBytes)
	}
	if acc.Rejected == 0 {
		t.Error("no rejections recorded")
	}
}

func TestReplayedRecordsRejected(t *testing.T) {
	s := newAttackSite(t, 1)
	s.peers[0].SetHTTPClient(&http.Client{Transport: &adversary.Records{Duplicate: true}})
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	s.peers[0].Flush(s.originSrv.URL)
	acc := s.origin.AccountingFor(s.peers[0].ID)
	total, _ := s.origin.TotalPageBytes("home")
	if acc.CreditedBytes != total {
		t.Errorf("credited %d, want exactly one page worth %d (replays rejected)",
			acc.CreditedBytes, total)
	}
	if acc.Rejected == 0 {
		t.Error("replays not counted as rejected")
	}
}

// TestConcurrentLoadPageTamperingPeer runs parallel page loads against a
// site where every peer tampers: every load must flag tampering, assemble a
// correct page from origin fallbacks, and credit zero peer bytes.
func TestConcurrentLoadPageTamperingPeer(t *testing.T) {
	s := newAttackSite(t, 2)
	for _, tamper := range s.tampers {
		tamper.On.Store(true)
	}
	s.loader.Concurrency = 6

	const loads = 8
	var wg sync.WaitGroup
	results := make([]*nocdn.PageResult, loads)
	errs := make([]error, loads)
	for i := 0; i < loads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.loader.LoadPage("home")
		}(i)
	}
	wg.Wait()

	for i := 0; i < loads; i++ {
		if errs[i] != nil {
			t.Fatalf("load %d: %v", i, errs[i])
		}
		res := results[i]
		if !res.TamperDetected {
			t.Errorf("load %d: tampering not detected", i)
		}
		if !bytes.Equal(res.Body["/img/a.png"], bytes.Repeat([]byte("a"), 10000)) {
			t.Errorf("load %d: corrupted page assembled", i)
		}
		for peer, n := range res.PeerBytes {
			if n > 0 {
				t.Errorf("load %d: tampering peer %s credited %d bytes", i, peer, n)
			}
		}
	}
}

// TestTamperedServeDoesNotPoisonCache is the cache-aliasing regression: a
// tampering serve (which corrupts bytes) and range serves must never mutate
// the cached copy.
func TestTamperedServeDoesNotPoisonCache(t *testing.T) {
	s := newAttackSite(t, 1)
	peer, tamper, srv := s.peers[0], s.tampers[0], s.peerSrvs[0]

	// Warm the cache honestly.
	resp, err := http.Get(srv.URL + "/proxy/example.com/img/a.png")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Tampered serve corrupts what the client sees...
	tamper.On.Store(true)
	want := bytes.Repeat([]byte("a"), 10000)
	body := s.get(t, srv.URL+"/proxy/example.com/img/a.png")
	if bytes.Equal(body, want) {
		t.Fatal("tamper mode served clean bytes")
	}
	// ...and a range serve slices the cached entry.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/proxy/example.com/img/a.png", nil)
	req.Header.Set("Range", "bytes=0-99")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()

	// The cached copy must still be pristine.
	tamper.On.Store(false)
	body = s.get(t, srv.URL+"/proxy/example.com/img/a.png")
	if !bytes.Equal(body, want) {
		t.Fatal("cache poisoned by tampered/range serving")
	}
	if fetches := peer.OriginFetches(); fetches != 1 {
		t.Errorf("origin fetches = %d, want 1 (all serves from cache)", fetches)
	}
}

// TestTamperedStreamedRangeServe is the case the peer's old tamper flag could
// not express: it answered a Range for a disk-tier object with the whole
// object, corrupted, so a chunking loader never saw a tampered 206. Through
// the wrapper the peer serves each chunk as it always does — verifying at
// rest the blocks that cover the window, and only those — and the flip
// happens after it: every chunk arrives as a well-formed 206 with one wrong
// byte, the loader's hash check catches the assembled object, and the page
// renders the published bytes from the origin with no peer credited.
func TestTamperedStreamedRangeServe(t *testing.T) {
	const (
		size   = 4 << 20
		chunks = 4
		chunk  = size / chunks
	)
	big := make([]byte, size)
	rng := sim.NewRNG(24)
	for i := range big {
		big[i] = byte(rng.Intn(256))
	}
	o := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(7)), nocdn.WithChunking(chunks, 64<<10))
	o.AddObject("/index.html", []byte("<html>streamed tamper</html>"))
	o.AddObject("/big.bin", big)
	if err := o.AddPage(nocdn.Page{Name: "home", Container: "/index.html", Embedded: []string{"/big.bin"}}); err != nil {
		t.Fatal(err)
	}
	s := &attackSite{origin: o, originSrv: httptest.NewServer(o.Handler())}
	t.Cleanup(s.originSrv.Close)
	for i := 0; i < chunks; i++ {
		// 256 KiB of memory is 16 KiB shards: the object can only live on
		// the disk tier, so every serve of it is streamed.
		p := nocdn.NewPeer(fmt.Sprintf("home-%d", i), 256<<10)
		p.SetMetrics(hpop.NewMetrics())
		if err := p.AttachDiskCache(t.TempDir(), 64<<20, 8<<20); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.CloseDiskCache)
		p.SignUp("example.com", s.originSrv.URL)
		s.addPeer(t, p, 10)
	}
	s.loader = &nocdn.Loader{OriginURL: s.originSrv.URL, Concurrency: nocdn.DefaultConcurrency}

	// Honest: every peer fills, then earns the object's block sums on its
	// first streamed serve, so the serves below are windowed.
	for i, srv := range s.peerSrvs {
		url := srv.URL + "/proxy/example.com/big.bin"
		for _, what := range []string{"fill", "earn"} {
			if !bytes.Equal(s.get(t, url, "Range", "bytes=0-99"), big[:100]) {
				t.Fatalf("peer %d: %s served other bytes than the published ones", i, what)
			}
		}
	}
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	if res.TamperDetected || len(res.FallbackObjects) != 0 || !bytes.Equal(res.Body["/big.bin"], big) {
		t.Fatalf("honest chunked view: tamper=%v fallbacks=%v", res.TamperDetected, res.FallbackObjects)
	}

	for _, tamper := range s.tampers {
		tamper.On.Store(true)
	}
	// Every chunk, from every peer: a 206 of the right length over the right
	// bytes but one, and the peer hashed the chunk's blocks to serve it — not
	// the object.
	for i, srv := range s.peerSrvs {
		for c := 0; c < chunks; c++ {
			lo, hi := c*chunk, (c+1)*chunk
			hashed, fetches := s.peers[i].DiskHashedBytes(), s.peers[i].OriginFetches()
			resp, body := s.do(t, srv.URL+"/proxy/example.com/big.bin", "Range", fmt.Sprintf("bytes=%d-%d", lo, hi-1))
			if resp.StatusCode != http.StatusPartialContent || len(body) != chunk {
				t.Fatalf("peer %d chunk %d: status %d, %d bytes; want 206 and %d", i, c, resp.StatusCode, len(body), chunk)
			}
			if want := fmt.Sprintf("bytes %d-%d/%d", lo, hi-1, size); resp.Header.Get("Content-Range") != want {
				t.Fatalf("peer %d chunk %d: Content-Range %q, want %q", i, c, resp.Header.Get("Content-Range"), want)
			}
			diff := 0
			for j := range body {
				if body[j] != big[lo+j] {
					diff++
				}
			}
			if diff != 1 || body[chunk/2] == big[lo+chunk/2] {
				t.Fatalf("peer %d chunk %d: %d bytes differ from the published ones; want exactly the middle one", i, c, diff)
			}
			if got := s.peers[i].DiskHashedBytes() - hashed; got != chunk {
				t.Fatalf("peer %d chunk %d: peer hashed %d bytes at rest to serve it, want the window's %d", i, c, got, chunk)
			}
			if got := s.peers[i].OriginFetches() - fetches; got != 0 {
				t.Fatalf("peer %d chunk %d: %d origin fetches; the entry at rest is intact", i, c, got)
			}
		}
	}

	res, err = s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TamperDetected {
		t.Fatal("tampered chunks went undetected")
	}
	if !bytes.Equal(res.Body["/big.bin"], big) {
		t.Fatal("rendered object is not the published bytes")
	}
	fellBack := false
	for _, path := range res.FallbackObjects {
		fellBack = fellBack || path == "/big.bin"
	}
	if !fellBack {
		t.Fatalf("fallback objects = %v, want /big.bin among them", res.FallbackObjects)
	}
	for peer, n := range res.PeerBytes {
		if n > 0 {
			t.Errorf("tampering peer %s credited %d bytes", peer, n)
		}
	}
}
