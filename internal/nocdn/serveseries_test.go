package nocdn

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"hpop/internal/hpop"
)

// TestServeSeriesNames pins the names of the series a serve moves. Fleet
// telemetry ships them and the SLOs read them, and the serve path spells
// them out as constants, so a typo there must fail here. After a miss, a
// memory hit, a disk hit, a hash-epoch stale serve and a revalidation,
// exactly these nocdn.peer.xcache.*,
// nocdn.cache.hits.*, nocdn.cache.hit_seconds.* and nocdn.cache.bytes.*
// series have moved.
func TestServeSeriesNames(t *testing.T) {
	objects := map[string][]byte{"/small": obj(70, 1<<10), "/big": obj(71, 300<<10), "/expired": obj(72, 1<<10)}
	p := NewPeer("series", 64<<10) // 4 KiB memory shards: /big goes to disk
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/content")
		data, ok := objects[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		etag := `"` + HashBytes(data) + `"`
		if path == "/expired" {
			w.Header().Set("Cache-Control", "max-age=0")
			if r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("ETag", etag)
		w.Write(data)
	}))
	t.Cleanup(origin.Close)
	m := hpop.NewMetrics()
	p.SetMetrics(m)
	if err := p.AttachDiskCache(t.TempDir(), 8<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseDiskCache)
	p.SignUp("prov", origin.URL)
	h := p.Handler()
	get := func(path, expect, want string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/proxy/prov"+path, nil)
		if expect != "" {
			req.Header.Set(ExpectHashHeader, expect)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get(XCacheHeader) != want {
			t.Fatalf("GET %s: %d %s, want 200 %s", path, w.Code, w.Header().Get(XCacheHeader), want)
		}
	}
	get("/small", "", XCacheMiss)
	get("/small", "", XCacheHit) // memory
	get("/big", "", XCacheMiss)
	get("/big", "", XCacheHit) // streamed off the disk tier
	get("/expired", "", XCacheMiss)
	get("/expired", HashBytes(objects["/expired"]), XCacheStale)
	get("/expired", "", XCacheRevalidated)

	// The disk tier registers some of these at zero when it attaches, so a
	// series counts as emitted once a serve has moved it.
	var got []string
	for _, name := range m.Names() {
		if (strings.HasPrefix(name, "nocdn.peer.xcache.") || strings.HasPrefix(name, "nocdn.cache.hits.") ||
			strings.HasPrefix(name, "nocdn.cache.bytes.")) && m.Counter(name) > 0 {
			got = append(got, name)
		}
	}
	for name, h := range m.Histograms() {
		if strings.HasPrefix(name, "nocdn.cache.hit_seconds.") && h.Count() > 0 {
			got = append(got, name)
		}
	}
	slices.Sort(got)
	want := []string{
		"nocdn.cache.bytes.disk",
		"nocdn.cache.bytes.mem",
		"nocdn.cache.bytes.origin",
		"nocdn.cache.hit_seconds.disk",
		"nocdn.cache.hit_seconds.mem",
		"nocdn.cache.hits.disk",
		"nocdn.cache.hits.mem",
		"nocdn.peer.xcache.hit",
		"nocdn.peer.xcache.miss",
		"nocdn.peer.xcache.revalidated",
		"nocdn.peer.xcache.stale",
	}
	if !slices.Equal(got, want) {
		t.Errorf("serve series:\n got %q\nwant %q", got, want)
	}
}
