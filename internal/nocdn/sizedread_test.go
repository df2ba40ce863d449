package nocdn

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
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
// reshaped by mode; everything else passes through. With item set, the
// shape applies to the bundle item of that name instead: its bytes, and the
// length the bundle declares for it.
func faultFront(next http.Handler, match func(*http.Request) bool, item string, mode bodyFault) http.Handler {
	var hits atomic.Int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !match(r) {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			if k != "Content-Length" {
				w.Header()[k] = v
			}
		}
		var head, tail []byte // what the answer carries around the reshaped body
		body := rec.Body.Bytes()
		declare := func(int) {}
		if lengths := rec.Header().Get(BundleHeader); item != "" && lengths != "" {
			items, at := splitBundle(r, rec, item)
			head, body, tail = bytes.Join(items[:at], nil), items[at], bytes.Join(items[at+1:], nil)
			declare = func(n int) {
				ns := strings.Split(lengths, ",")
				ns[at] = strconv.Itoa(n)
				w.Header().Set(BundleHeader, strings.Join(ns, ","))
			}
		}
		whole := func() string { return strconv.Itoa(len(head) + len(body) + len(tail)) }
		if mode == bodyResetOnce && hits.Add(1) == 1 {
			w.Header().Set("Content-Length", whole())
			w.WriteHeader(rec.Code)
			w.Write(head)
			w.Write(bytes.Repeat([]byte{0xEE}, len(body)/2))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // cuts the connection mid-body
		}
		switch mode {
		case bodyShort:
			body = body[:len(body)/2]
		case bodyLong:
			body = append(body[:len(body):len(body)], "trailing junk"...)
		}
		declare(len(body))
		if mode == bodyExact || mode == bodyResetOnce {
			w.Header().Set("Content-Length", whole())
		}
		w.WriteHeader(rec.Code)
		w.Write(head)
		w.Write(body)
		w.Write(tail)
		if mode != bodyExact && mode != bodyResetOnce {
			// A flush before the handler returns commits the header without
			// a Content-Length: net/http chunks the body and ends it cleanly.
			w.(http.Flusher).Flush()
		}
	})
}

// asks reports whether r is a bundle request naming path.
func asks(r *http.Request, path string) bool {
	return slices.Contains(r.URL.Query()["o"], path)
}

// splitBundle splits rec, the genuine answer to the bundle request r, into
// its items, and finds the one named path.
func splitBundle(r *http.Request, rec *httptest.ResponseRecorder, path string) (items [][]byte, at int) {
	items, err := BundleItems(rec.Header().Get(BundleHeader), rec.Body.Bytes())
	at = slices.Index(r.URL.Query()["o"], path)
	if err != nil || at < 0 {
		panic(fmt.Sprintf("test front: %s is not an item of %s (%v)", path, r.URL, err))
	}
	return items, at
}

// failItem answers bundle requests naming path with that item declared
// failed with status, and next's genuine answer for the others — next is
// never asked for path, as a single GET answered status never reached it.
func failItem(next http.Handler, path string, status int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		at := slices.Index(q["o"], path)
		if at < 0 {
			next.ServeHTTP(w, r)
			return
		}
		var items [][]byte
		var lengths []string
		if len(q["o"]) > 1 {
			q["o"], q["h"] = slices.Delete(q["o"], at, at+1), slices.Delete(q["h"], at, at+1)
			others := r.Clone(r.Context())
			others.URL.RawQuery = q.Encode()
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, others)
			var err error
			if items, err = BundleItems(rec.Header().Get(BundleHeader), rec.Body.Bytes()); err != nil {
				panic(fmt.Sprintf("test front: %s: %v", others.URL, err))
			}
			lengths = strings.Split(rec.Header().Get(BundleHeader), ",")
		}
		items = slices.Insert(items, at, nil)
		lengths = slices.Insert(lengths, at, strconv.Itoa(-status))
		body := bytes.Join(items, nil)
		w.Header().Set(BundleHeader, strings.Join(lengths, ","))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
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
		// match picks the request the fault applies to (in a bundle, to the
		// target's item); fail404 has the peers answer the target's item 404
		// to force the origin-fallback hop.
		match   func(role string, r *http.Request) bool
		fail404 bool
	}{
		{name: "whole object", peers: 1,
			match: func(role string, r *http.Request) bool {
				return role != "origin" && asks(r, target)
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
			fail404: true},
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
					h = faultFront(h, func(r *http.Request) bool { return hop.match(role, r) }, target, mode)
					if hop.fail404 && role != "origin" {
						return failItem(h, target, http.StatusNotFound)
					}
					return h
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

// TestBundleOutcomes drives one page view per fault that only a bundle can
// carry, on a one-peer site whose five objects travel in one bundle. Each
// lands on the outcome the same fault had on the single GET of every object
// it touches: the bytes rendered, tampering, the fallbacks in wrapper order,
// the retries and giveups, the credit, and the peer's breaker charge (one
// success or failure per object, one fallback charge per object it forced to
// the origin).
func TestBundleOutcomes(t *testing.T) {
	const target = "/img/a.png"
	wrapperOrder := []string{"/index.html", "/img/a.png", "/img/b.png", "/img/c.png", "/img/d.png"}
	var once atomic.Bool
	for _, tc := range []struct {
		name  string
		front func(h http.Handler, w http.ResponseWriter, r *http.Request)
		// The outcome of the same fault on single GETs.
		tamper                        bool
		fallbacks                     []string
		retries, giveups              float64
		successes, failures, fallback int64
	}{
		// The target's GET answers 502 on all three attempts.
		{name: "item -502", front: func(h http.Handler, w http.ResponseWriter, r *http.Request) {
			failItem(h, target, http.StatusBadGateway).ServeHTTP(w, r)
		}, fallbacks: []string{target}, retries: 2, giveups: 1, successes: 4, failures: 1, fallback: 1},
		// The target's GET ends cleanly one byte past the wrapper's size.
		{name: "item of another length", front: func(h http.Handler, w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			items, at := splitBundle(r, rec, target)
			items[at] = append(items[at][:len(items[at]):len(items[at])], 'x')
			writeBundle(w, items)
		}, tamper: true, fallbacks: []string{target}, giveups: 1, successes: 4, failures: 1, fallback: 1},
		// The second object's GET is cut mid-body once.
		{name: "cut after the first item", front: func(h http.Handler, w http.ResponseWriter, r *http.Request) {
			if once.Swap(true) {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			items, _ := BundleItems(rec.Header().Get(BundleHeader), rec.Body.Bytes())
			w.Header().Set(BundleHeader, rec.Header().Get(BundleHeader))
			w.Header().Set("Content-Length", strconv.Itoa(rec.Body.Len()))
			w.Write(items[0])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}, retries: 1, successes: 5},
		// Every object's GET answers 503 once.
		{name: "bundle 503", front: func(h http.Handler, w http.ResponseWriter, r *http.Request) {
			if once.Swap(true) {
				h.ServeHTTP(w, r)
				return
			}
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}, retries: 5, successes: 5},
		// Every object's GET names a provider the peer never signed up for.
		{name: "unknown provider", front: func(h http.Handler, w http.ResponseWriter, r *http.Request) {
			other := r.Clone(r.Context())
			other.URL.Path = "/proxy/unknown.example"
			h.ServeHTTP(w, other)
		}, fallbacks: wrapperOrder, retries: 10, giveups: 5, failures: 5, fallback: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			once.Store(false)
			s := newSizedSite(t, 1, func(role string, h http.Handler) http.Handler {
				if role == "origin" {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !strings.HasPrefix(r.URL.Path, "/proxy/") {
						h.ServeHTTP(w, r)
						return
					}
					tc.front(h, w, r)
				})
			}, nil)
			res, err := s.loader.LoadPage("home")
			if err != nil {
				t.Fatal(err)
			}
			for path, want := range s.published {
				if !bytes.Equal(res.Body[path], want) {
					t.Errorf("%s: rendered %d bytes that are not the %d published", path, len(res.Body[path]), len(want))
				}
			}
			if res.TamperDetected != tc.tamper {
				t.Errorf("TamperDetected = %v, want %v", res.TamperDetected, tc.tamper)
			}
			if !slices.Equal(res.FallbackObjects, tc.fallbacks) {
				t.Errorf("FallbackObjects = %v, want %v", res.FallbackObjects, tc.fallbacks)
			}
			if got := s.metrics.Counter("nocdn.loader.retries"); got != tc.retries {
				t.Errorf("retries = %v, want %v", got, tc.retries)
			}
			if got := s.metrics.Counter("nocdn.loader.giveups"); got != tc.giveups {
				t.Errorf("giveups = %v, want %v", got, tc.giveups)
			}
			var credit int64
			for path, data := range s.published {
				if !slices.Contains(tc.fallbacks, path) {
					credit += int64(len(data))
				}
			}
			p := s.peers[0]
			if _, err := p.Flush(s.originURL); err != nil {
				t.Fatal(err)
			}
			if served, credited := res.PeerBytes[p.ID], s.origin.AccountingFor(p.ID).CreditedBytes; served != credit || credited != credit {
				t.Errorf("peer served %d and was credited %d bytes, want %d", served, credited, credit)
			}
			for _, ph := range s.health.Snapshot().Peers {
				if ph.Successes != tc.successes || ph.Failures != tc.failures || ph.Fallbacks != tc.fallback {
					t.Errorf("peer %s charged %d successes, %d failures, %d fallbacks; want %d, %d, %d",
						ph.ID, ph.Successes, ph.Failures, ph.Fallbacks, tc.successes, tc.failures, tc.fallback)
				}
			}
		})
	}
}

// writeBundle answers a bundle of items, every one of them served.
func writeBundle(w http.ResponseWriter, items [][]byte) {
	lengths := make([]string, len(items))
	for i, it := range items {
		lengths[i] = strconv.Itoa(len(it))
	}
	body := bytes.Join(items, nil)
	w.Header().Set(BundleHeader, strings.Join(lengths, ","))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
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
		return faultFront(h, func(*http.Request) bool { return true }, "", bodyChunked)
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

// TestDefaultClientKeepsConnections: a loader built without an HTTPClient
// keeps as many idle connections per host as it has requests in flight, so
// over many chunked views no peer sees more connections than that.
// (http.DefaultTransport keeps two: every Range request beyond them cost a
// connection per view.)
func TestDefaultClientKeepsConnections(t *testing.T) {
	var mu sync.Mutex
	opened := make(map[string]int)
	s := newSizedSite(t, 2, nil, func(role string, _ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			opened[role]++
			mu.Unlock()
		}
	}, WithChunking(2, 1000))
	s.loader.HTTPClient = nil
	t.Cleanup(func() { s.loader.client().CloseIdleConnections() })
	for i := 0; i < 20; i++ {
		res, err := s.loader.LoadPage("home")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FallbackObjects) != 0 || res.RecordsDelivered != 2 {
			t.Fatalf("view %d: fallbacks %v, %d records delivered", i, res.FallbackObjects, res.RecordsDelivered)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range s.peers {
		if n := opened[p.ID]; n > DefaultConcurrency {
			t.Errorf("%s saw %d connections over 20 views, want <= %d", p.ID, n, DefaultConcurrency)
		}
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
