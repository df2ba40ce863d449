package nocdn

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fillOrigin is a hand-rolled origin for one object, /x: the test sets which
// version it serves and how, and it remembers the last request's headers.
type fillOrigin struct {
	mu      sync.Mutex
	body    string
	headers map[string]string // extra response headers
	fault   string            // "length": declare ten bytes more than are sent; "500"
	lastReq http.Header
}

func (o *fillOrigin) set(body, fault string, headers map[string]string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.body, o.fault, o.headers = body, fault, headers
}

func (o *fillOrigin) last(name string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastReq.Get(name)
}

func (o *fillOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lastReq = r.Header.Clone()
	if o.fault == "500" {
		http.Error(w, "origin on fire", http.StatusInternalServerError)
		return
	}
	etag := `"` + HashBytes([]byte(o.body)) + `"`
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "text/x-fill")
	w.Header().Set("ETag", etag)
	for k, v := range o.headers {
		w.Header().Set(k, v)
	}
	if o.fault == "length" {
		w.Header().Set("Content-Length", strconv.Itoa(len(o.body)+10))
	}
	w.Write([]byte(o.body))
}

// TestOriginGetOneFillRoutine drives the peer's one origin-read routine from
// each of its three entry points — a cold miss, a hash-epoch refetch, a
// revalidation the origin does not answer 304 — against five kinds of
// response, and holds all three to the same answers: the X-Cache verdict, the
// replayed headers, the OriginFetches delta (a request that asked for a body
// counts, whether or not one arrived — the backfill's rule; before the merge a
// revalidation answered 500 went uncounted), and the cache state a follow-up
// request observes.
func TestOriginGetOneFillRoutine(t *testing.T) {
	const v1, v2 = "the first version", "the second version, which replaces it"
	type probe struct {
		status  int
		xcache  string
		body    string
		fetches int64
	}
	responses := []struct {
		name    string
		fault   string
		headers map[string]string
		fill    probe // the request that runs the routine
		again   probe // the same request once more, origin healed
	}{
		{"plain", "", map[string]string{"Cache-Control": "max-age=60"},
			probe{200, XCacheMiss, v2, 1}, probe{200, XCacheHit, v2, 0}},
		{"vary", "", map[string]string{"Cache-Control": "max-age=60", "Vary": "Accept-Language"},
			probe{200, XCacheMiss, v2, 1}, probe{200, XCacheMiss, v2, 1}}, // the variant key is new
		{"no-store", "", map[string]string{"Cache-Control": "no-store"},
			probe{200, XCacheMiss, v2, 1}, probe{200, XCacheMiss, v2, 1}},
		{"wrong Content-Length", "length", map[string]string{"Cache-Control": "max-age=60"},
			probe{502, "", "", 1}, probe{200, XCacheMiss, v2, 1}},
		{"origin 500", "500", map[string]string{"Cache-Control": "max-age=60"},
			probe{502, "", "", 1}, probe{200, XCacheMiss, v2, 1}},
	}
	entries := []struct {
		name  string
		prime bool   // serve v1 first, so the routine replaces an entry
		age   bool   // ...and let it expire, so a plain request revalidates
		hash  string // X-Expect-Hash on the request under test
	}{
		{"miss backfill", false, false, ""},
		{"hash-epoch refetch", true, false, HashBytes([]byte(v2))},
		{"revalidation", true, true, ""},
	}
	for _, resp := range responses {
		for _, entry := range entries {
			t.Run(resp.name+"/"+entry.name, func(t *testing.T) {
				origin := &fillOrigin{}
				srv := httptest.NewServer(origin)
				defer srv.Close()
				now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
				p := NewPeer("fill", 0)
				p.SetClock(func() time.Time { return now })
				p.SignUp("prov", srv.URL)
				peerSrv := httptest.NewServer(p.Handler())
				defer peerSrv.Close()

				get := func(what string, want probe) http.Header {
					t.Helper()
					req, _ := http.NewRequest(http.MethodGet, peerSrv.URL+"/proxy/prov/x", nil)
					req.Header.Set("Accept-Language", "fr")
					if entry.hash != "" {
						req.Header.Set(ExpectHashHeader, entry.hash)
					}
					before := p.OriginFetches()
					r, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Body.Close()
					raw, err := io.ReadAll(r.Body)
					if err != nil {
						t.Fatal(err)
					}
					got := probe{r.StatusCode, r.Header.Get(XCacheHeader), string(raw), p.OriginFetches() - before}
					if r.StatusCode != http.StatusOK {
						got.body = "" // the error text is not under test
					}
					if got != want {
						t.Fatalf("%s: got %+v, want %+v", what, got, want)
					}
					return r.Header
				}

				if entry.prime {
					origin.set(v1, "", map[string]string{"Cache-Control": "max-age=60"})
					req, _ := http.NewRequest(http.MethodGet, peerSrv.URL+"/proxy/prov/x", nil)
					r, err := http.DefaultClient.Do(req)
					if err != nil || r.StatusCode != http.StatusOK {
						t.Fatalf("prime: %v %v", r, err)
					}
					r.Body.Close()
				}
				if entry.age {
					now = now.Add(2 * time.Minute)
				}
				origin.set(v2, resp.fault, resp.headers)

				hdr := get("fill", resp.fill)
				if resp.fill.status == http.StatusOK {
					for name, want := range map[string]string{
						"Content-Type":   "text/x-fill",
						"ETag":           `"` + HashBytes([]byte(v2)) + `"`,
						"Cache-Control":  resp.headers["Cache-Control"],
						ExpectHashHeader: HashBytes([]byte(v2)),
					} {
						if got := hdr.Get(name); got != want {
							t.Errorf("fill: replayed %s = %q, want %q", name, got, want)
						}
					}
				}
				origin.set(v2, "", resp.headers)
				get("again", resp.again)
				if resp.headers["Vary"] != "" {
					// The Vary the fill recorded is what made the second request
					// a new key, and what forwards the header it varies on.
					if got := origin.last("Accept-Language"); got != "fr" {
						t.Errorf("refill forwarded Accept-Language %q, want fr", got)
					}
					get("variant, cached", probe{200, XCacheHit, v2, 0})
				}
			})
		}
	}
}
