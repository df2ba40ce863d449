package nocdn

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// bodyFault is how a fronted server answers the one request under test.
type bodyFault int

const (
	bodyExact     bodyFault = iota // the genuine body under a Content-Length
	bodyChunked                    // the genuine body, chunked encoding
	bodyShort                      // half the body, then a clean end (chunked)
	bodyLong                       // the body plus trailing bytes (chunked)
	bodyResetOnce                  // once: full Content-Length, half a body of junk, cut; then exact
)

func (f bodyFault) String() string {
	return [...]string{"exact", "chunked", "short", "long", "reset-once"}[f]
}

// faultFront answers requests that match with next's genuine response
// reshaped by mode; everything else passes through.
func faultFront(next http.Handler, match func(*http.Request) bool, mode bodyFault) http.Handler {
	var hits atomic.Int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !match(r) {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for k, v := range rec.Header() {
			if k != "Content-Length" {
				w.Header()[k] = v
			}
		}
		if mode == bodyResetOnce && hits.Add(1) == 1 {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(bytes.Repeat([]byte{0xEE}, len(body)/2))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // cuts the connection mid-body
		}
		switch mode {
		case bodyExact, bodyResetOnce:
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		case bodyShort:
			body = body[:len(body)/2]
		case bodyLong:
			body = append(body[:len(body):len(body)], "trailing junk"...)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
		if mode != bodyExact && mode != bodyResetOnce {
			// A flush before the handler returns commits the header without
			// a Content-Length: net/http chunks the body and ends it cleanly.
			w.(http.Flusher).Flush()
		}
	})
}

// sizedSite is one origin and its peers, every server behind an optional
// front, with the published bytes kept for comparison.
type sizedSite struct {
	origin    *Origin
	originURL string
	peers     []*Peer
	published map[string][]byte
	loader    *Loader
	metrics   *hpop.Metrics
	health    *hpop.HealthRegistry
}

// newSizedSite publishes newTestSite's page behind front (role is "origin"
// or the peer's ID; nil leaves every handler bare) and hooks connState into
// every server.
func newSizedSite(t *testing.T, peerCount int, front func(role string, h http.Handler) http.Handler,
	connState func(role string, c net.Conn, s http.ConnState), opts ...OriginOption) *sizedSite {
	t.Helper()
	serve := func(role string, h http.Handler) string {
		if front != nil {
			h = front(role, h)
		}
		srv := httptest.NewUnstartedServer(h)
		if connState != nil {
			srv.Config.ConnState = func(c net.Conn, s http.ConnState) { connState(role, c, s) }
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv.URL
	}
	s := &sizedSite{published: map[string][]byte{"/index.html": bytes.Repeat([]byte("<html>"), 500)}}
	for _, suffix := range []string{"a", "b", "c", "d"} {
		s.published["/img/"+suffix+".png"] = bytes.Repeat([]byte(suffix), 10000)
	}
	s.origin = NewOrigin("example.com", append([]OriginOption{WithRNG(sim.NewRNG(7))}, opts...)...)
	for path, data := range s.published {
		s.origin.AddObject(path, data)
	}
	if err := s.origin.AddPage(Page{
		Name:      "home",
		Container: "/index.html",
		Embedded:  []string{"/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"},
	}); err != nil {
		t.Fatal(err)
	}
	s.originURL = serve("origin", s.origin.Handler())
	for i := 0; i < peerCount; i++ {
		p := NewPeer(peerID(i), 0)
		p.SignUp("example.com", s.originURL)
		s.peers = append(s.peers, p)
		s.origin.RegisterPeer(p.ID, serve(p.ID, p.Handler()), 10)
	}
	s.metrics = hpop.NewMetrics()
	// A breaker one object cannot open. These cases fault every attempt on
	// one object of a one-peer page; with the default breaker (open at 50%
	// failures once 4 outcomes are in) its failed attempts plus the
	// RecordFallback trip it whenever they land before the siblings'
	// successes, Health.Allow then sends the siblings to the origin too, and
	// FallbackObjects depends on goroutine order. 64 is above what one view
	// can charge a peer; the Fallbacks a peer is charged are still asserted.
	s.health = hpop.NewHealthRegistry(hpop.BreakerConfig{MinSamples: 64, Window: 64})
	s.loader = &Loader{
		OriginURL: s.originURL,
		Retry:     faults.Policy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond, Jitter: -1},
		Metrics:   s.metrics,
		Health:    s.health,
	}
	return s
}

// TestSizedReadOutcomes drives one page view per (hop, body shape): the
// bytes a view renders are the published bytes or nothing, and each wrong
// body lands on the outcome its hop had before reads were size-directed.
func TestSizedReadOutcomes(t *testing.T) {
	const target = "/img/a.png"
	hops := []struct {
		name  string
		opts  []OriginOption
		peers int
		// match picks the request the fault applies to; fail404 marks the
		// peer requests answered 404 to force the origin-fallback hop.
		match   func(role string, r *http.Request) bool
		fail404 func(role string, r *http.Request) bool
	}{
		{name: "whole object", peers: 1,
			match: func(role string, r *http.Request) bool {
				return role != "origin" && strings.HasSuffix(r.URL.Path, target)
			}},
		{name: "chunk", peers: 2, opts: []OriginOption{WithChunking(2, 1000)},
			match: func(role string, r *http.Request) bool {
				return role != "origin" && strings.HasSuffix(r.URL.Path, target) &&
					strings.HasPrefix(r.Header.Get("Range"), "bytes=0-")
			}},
		{name: "origin fallback", peers: 1,
			match: func(role string, r *http.Request) bool {
				return role == "origin" && r.URL.Path == "/content"+target
			},
			fail404: func(role string, r *http.Request) bool {
				return role != "origin" && strings.HasSuffix(r.URL.Path, target)
			}},
		{name: "wrapper", peers: 1,
			match: func(role string, r *http.Request) bool {
				return role == "origin" && r.URL.Path == "/wrapper"
			}},
	}
	for _, hop := range hops {
		for _, mode := range []bodyFault{bodyExact, bodyChunked, bodyShort, bodyLong, bodyResetOnce} {
			t.Run(hop.name+"/"+mode.String(), func(t *testing.T) {
				wrongLength := mode == bodyShort || mode == bodyLong
				// What each hop does with a cleanly ended body of the wrong
				// length; every other shape loads clean (after one retry
				// for the reset).
				var wantErr, wantTamper, wantFallback bool
				switch hop.name {
				case "whole object": // the hash mismatch it is
					wantTamper, wantFallback = wrongLength, wrongLength
				case "chunk": // a failed peer, not a tampering one
					wantFallback = wrongLength
				case "origin fallback": // nothing left to fall back to
					wantErr, wantFallback = wrongLength, true
				case "wrapper": // unparsable
					wantErr = wrongLength
				}
				s := newSizedSite(t, hop.peers, func(role string, h http.Handler) http.Handler {
					h = faultFront(h, func(r *http.Request) bool { return hop.match(role, r) }, mode)
					if hop.fail404 == nil {
						return h
					}
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if hop.fail404(role, r) {
							http.NotFound(w, r)
							return
						}
						h.ServeHTTP(w, r)
					})
				}, nil, hop.opts...)

				res, err := s.loader.LoadPage("home")
				if wantErr {
					if err == nil || res != nil {
						t.Fatalf("LoadPage rendered=%v, err=%v; want no page and an error", res != nil, err)
					}
					if hop.name == "origin fallback" && !errors.Is(err, ErrTampered) {
						t.Errorf("err = %v, want ErrTampered (origin copy too)", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for path, want := range s.published {
					if !bytes.Equal(res.Body[path], want) {
						t.Errorf("%s: rendered %d bytes that are not the %d published", path, len(res.Body[path]), len(want))
					}
				}
				if res.TamperDetected != wantTamper {
					t.Errorf("TamperDetected = %v, want %v", res.TamperDetected, wantTamper)
				}
				var wantFallbacks []string
				credit := int64(0)
				for _, data := range s.published {
					credit += int64(len(data))
				}
				if wantFallback {
					wantFallbacks = []string{target}
					credit -= int64(len(s.published[target])) // no peer is paid for it
				}
				if strings.Join(res.FallbackObjects, ",") != strings.Join(wantFallbacks, ",") {
					t.Errorf("FallbackObjects = %v, want %v", res.FallbackObjects, wantFallbacks)
				}
				wantRetries := 0.0
				if mode == bodyResetOnce {
					wantRetries = 1
				}
				if got := s.metrics.Counter("nocdn.loader.retries"); got != wantRetries {
					t.Errorf("retries = %v, want %v", got, wantRetries)
				}
				var served, credited int64
				for _, p := range s.peers {
					served += res.PeerBytes[p.ID]
					if _, err := p.Flush(s.originURL); err != nil {
						t.Fatal(err)
					}
					credited += s.origin.AccountingFor(p.ID).CreditedBytes
				}
				if served != credit || credited != credit {
					t.Errorf("peers served %d and were credited %d bytes, want %d", served, credited, credit)
				}
				if hop.name == "whole object" {
					for _, ph := range s.health.Snapshot().Peers {
						if want := map[bool]int64{true: 1}[wrongLength]; ph.Fallbacks != want {
							t.Errorf("peer %s charged %d fallbacks, want %d", ph.ID, ph.Fallbacks, want)
						}
					}
				}
			})
		}
	}
}

// TestSizedReadUnsizedWrapper: a hand-built wrapper that states no sizes
// still loads — each read sizes itself by Content-Length, or grows.
func TestSizedReadUnsizedWrapper(t *testing.T) {
	s := newSizedSite(t, 1, func(role string, h http.Handler) http.Handler {
		if role != "origin" {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/wrapper" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var wr Wrapper
			if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
				t.Error(err)
			}
			wr.Container.Size = 0
			for i := range wr.Objects {
				wr.Objects[i].Size = 0
			}
			json.NewEncoder(w).Encode(&wr)
		})
	}, nil)
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range s.published {
		if !bytes.Equal(res.Body[path], want) {
			t.Errorf("%s: rendered bytes are not the published bytes", path)
		}
	}
	if res.TamperDetected || len(res.FallbackObjects) != 0 {
		t.Errorf("tamper=%v fallbacks=%v on an honest unsized view", res.TamperDetected, res.FallbackObjects)
	}
}

// TestSizedReadKeepsConnectionsAlive: stopping at the last wanted byte of a
// chunked body would leave its terminating chunk unread and cost one
// connection per request. The EOF probe consumes it, so 50 views over one
// transport open no more connections per server than the loader has fetches
// in flight.
func TestSizedReadKeepsConnectionsAlive(t *testing.T) {
	var mu sync.Mutex
	opened := make(map[string]int)
	s := newSizedSite(t, 1, func(role string, h http.Handler) http.Handler {
		return faultFront(h, func(*http.Request) bool { return true }, bodyChunked)
	}, func(role string, _ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			opened[role]++
			mu.Unlock()
		}
	})
	tr := &http.Transport{MaxIdleConnsPerHost: DefaultConcurrency}
	defer tr.CloseIdleConnections()
	s.loader.HTTPClient = &http.Client{Transport: tr}
	for i := 0; i < 50; i++ {
		res, err := s.loader.LoadPage("home")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FallbackObjects) != 0 || res.RecordsDelivered != 1 {
			t.Fatalf("view %d: fallbacks %v, %d records delivered", i, res.FallbackObjects, res.RecordsDelivered)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for role, n := range opened {
		if n > DefaultConcurrency {
			t.Errorf("%s saw %d connections over 50 views, want <= %d", role, n, DefaultConcurrency)
		}
	}
	if len(opened) != 2 {
		t.Errorf("connections seen on %d servers, want origin and peer", len(opened))
	}
}

// TestReadBody pins the helper's contract reader by reader.
func TestReadBody(t *testing.T) {
	payload := []byte("0123456789")
	cut := errors.New("cut")
	for _, tc := range []struct {
		name     string
		r        io.Reader
		dst      []byte
		declared int64
		limit    int64
		want     string
		wantErr  error
	}{
		{name: "dst exact", r: bytes.NewReader(payload), dst: make([]byte, 10), want: "0123456789"},
		{name: "dst exact, one byte at a time", r: iotest.OneByteReader(bytes.NewReader(payload)), dst: make([]byte, 10), want: "0123456789"},
		{name: "dst exact, EOF with the data", r: iotest.DataErrReader(bytes.NewReader(payload)), dst: make([]byte, 10), want: "0123456789"},
		{name: "dst short", r: bytes.NewReader(payload[:4]), dst: make([]byte, 10), wantErr: errBodyLength},
		{name: "dst long", r: bytes.NewReader(payload), dst: make([]byte, 9), wantErr: errBodyLength},
		{name: "dst empty, body empty", r: bytes.NewReader(nil), dst: []byte{}, want: ""},
		{name: "dst cut mid-body", r: io.MultiReader(bytes.NewReader(payload[:4]), iotest.ErrReader(cut)), dst: make([]byte, 10), wantErr: cut},
		{name: "declared", r: bytes.NewReader(payload), declared: 10, limit: 10, want: "0123456789"},
		{name: "declared over the limit", r: bytes.NewReader(payload), declared: 10, limit: 9, wantErr: errBodyTooLarge},
		{name: "declared but long", r: bytes.NewReader(payload), declared: 9, limit: 10, wantErr: errBodyLength},
		{name: "undeclared", r: bytes.NewReader(payload), declared: -1, limit: 10, want: "0123456789"},
		{name: "undeclared over the limit", r: bytes.NewReader(payload), declared: -1, limit: 9, wantErr: errBodyTooLarge},
	} {
		got, err := readBody(tc.r, tc.dst, tc.declared, tc.limit)
		if !errors.Is(err, tc.wantErr) || string(got) != tc.want {
			t.Errorf("%s: readBody = %q, %v; want %q, %v", tc.name, got, err, tc.want, tc.wantErr)
		}
		if tc.dst != nil && err == nil && len(got) > 0 && &got[0] != &tc.dst[0] {
			t.Errorf("%s: body not read into dst", tc.name)
		}
	}
}
