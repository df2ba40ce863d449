package nocdn

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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
// is a cold miss. The interesting number is allocs/op: the body read and
// response buffering dominate, which is what the pooled-buffer fetch path
// exists to flatten.
func BenchmarkPeerOriginBackfill(b *testing.B) {
	payload := make([]byte, 64<<10)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
