package nocdn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// memoryBytes sums what the memory tier's shards hold.
func (s *shardedLRU) memoryBytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.used
		sh.mu.Unlock()
	}
	return n
}

// segmentOf reports which segment holds key's entry.
func (s *segmentStore) segmentOf(key string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	return e.seg, ok
}

// hasSegment reports whether segment id is still on disk.
func (s *segmentStore) hasSegment(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.segments[id]
	return ok
}

// TestDiskHitIsNotPromoted: a spilled entry served twice is served off the
// disk both times and stays out of memory, whose bytes do not move.
func TestDiskHitIsNotPromoted(t *testing.T) {
	const key = "prov|/small"
	objects := map[string][]byte{"/small": obj(1, 3<<10)}
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, objects) // 4 KiB memory shards
	// Two more 3 KiB objects in /small's shard push it out to disk.
	var evict []string
	for i := 0; len(evict) < 2; i++ {
		path := fmt.Sprintf("/evict/%d", i)
		if s.peer.cache.shardFor("prov|"+path) == s.peer.cache.shardFor(key) {
			objects[path] = obj(2+i, 3<<10)
			evict = append(evict, path)
		}
	}
	s.get(t, "/small")
	for _, path := range evict {
		s.get(t, path)
	}
	if _, _, ok := s.peer.cache.get(key); ok || !s.peer.store.Load().contains(key) {
		t.Fatalf("/small is in memory (%v) or not on disk", ok)
	}
	mem := s.peer.cache.memoryBytes()
	memHits, diskHits, _ := s.peer.TierStats()
	for i := 0; i < 2; i++ {
		resp, body := s.do(t, "/small")
		if !bytes.Equal(body, objects["/small"]) || resp.Header.Get(XCacheHeader) != XCacheHit {
			t.Fatalf("serve %d: %d bytes, X-Cache %q; want the published bytes as a HIT", i, len(body), resp.Header.Get(XCacheHeader))
		}
	}
	if _, _, ok := s.peer.cache.get(key); ok {
		t.Error("a disk hit was copied into memory")
	}
	if got := s.peer.cache.memoryBytes(); got != mem {
		t.Errorf("memory tier holds %d bytes after two disk hits, %d before", got, mem)
	}
	if m, d, _ := s.peer.TierStats(); m != memHits || d != diskHits+2 {
		t.Errorf("hits moved mem %d→%d, disk %d→%d; want two disk hits", memHits, m, diskHits, d)
	}
}

// newLapSite is a tiered site whose objects all go straight to the disk
// tier (8 KiB against 4 KiB memory shards), seven to a 64 KiB segment,
// under a budget of three segments. reclaim fills objects nobody asked for
// before until the segment holding path's entry now is reclaimed.
func newLapSite(t *testing.T) (s *tieredSite, reclaim func(path string)) {
	objects := make(map[string][]byte)
	for i := 0; i < 256; i++ {
		objects[fmt.Sprintf("/o/%03d", i)] = obj(i, 8<<10)
	}
	s = newTieredSite(t, 64<<10, 192<<10, 64<<10, objects)
	fresh := 16 // /o/000 to /o/015 are the tests' own
	reclaim = func(path string) {
		t.Helper()
		st := s.peer.store.Load()
		id, ok := st.segmentOf("prov|" + path)
		if !ok {
			t.Fatalf("%s is not on disk", path)
		}
		for st.hasSegment(id) {
			if fresh == len(objects) {
				t.Fatal("out of fresh objects")
			}
			s.get(t, fmt.Sprintf("/o/%03d", fresh))
			fresh++
		}
	}
	return s, reclaim
}

// TestReclaimGivesServedEntriesASecondLap pushes a small store past its
// budget. An entry served since it was written survives its segment's
// reclaim as a copy in a newer segment, which serves the same bytes under
// the same ETag as a HIT without asking the origin; its unserved neighbour
// is gone. A reclaim with no serve in between drops the copy.
func TestReclaimGivesServedEntriesASecondLap(t *testing.T) {
	s, reclaim := newLapSite(t)
	st := s.peer.store.Load()
	want := s.objects["/o/000"]
	s.get(t, "/o/000")
	s.get(t, "/o/001")
	first, _ := s.do(t, "/o/000") // a disk hit: /o/000 is served
	from, _ := st.segmentOf("prov|/o/000")

	reclaim("/o/000")
	if st.contains("prov|/o/001") {
		t.Error("the unserved neighbour survived the reclaim")
	}
	if id, ok := st.segmentOf("prov|/o/000"); !ok || id == from {
		t.Fatalf("served entry after the reclaim: segment %d, found %v; want a copy in a newer segment than %d", id, ok, from)
	}
	fetches := s.fetches.Load()
	resp, body := s.do(t, "/o/000")
	if !bytes.Equal(body, want) || resp.Header.Get(XCacheHeader) != XCacheHit || resp.Header.Get("ETag") != first.Header.Get("ETag") {
		t.Fatalf("the copy: %d bytes, X-Cache %q, ETag %q; want the published bytes as a HIT under %q",
			len(body), resp.Header.Get(XCacheHeader), resp.Header.Get("ETag"), first.Header.Get("ETag"))
	}
	if s.fetches.Load() != fetches {
		t.Error("serving the copy asked the origin")
	}

	reclaim("/o/000") // served again since its copy: a third lap
	if !st.contains("prov|/o/000") {
		t.Fatal("an entry served since its last lap was dropped")
	}
	reclaim("/o/000") // no serve since the last copy
	if st.contains("prov|/o/000") {
		t.Fatal("an entry not served since its last lap survived another reclaim")
	}
	if resp, body := s.do(t, "/o/000"); !bytes.Equal(body, want) || resp.Header.Get(XCacheHeader) != XCacheMiss {
		t.Fatalf("after the drop: X-Cache %q; want the published bytes as a MISS", resp.Header.Get(XCacheHeader))
	}
}

// TestReclaimCopySurvivesReopen: a second-lap copy is an ordinary record of
// the log, found by a reopen of the disk tier and by a new peer on the same
// directory.
func TestReclaimCopySurvivesReopen(t *testing.T) {
	s, reclaim := newLapSite(t)
	want := s.objects["/o/000"]
	s.get(t, "/o/000")
	s.get(t, "/o/000")
	reclaim("/o/000")
	fetches := s.fetches.Load()

	s.peer.CloseDiskCache()
	if err := s.peer.AttachDiskCache(s.dir, 192<<10, 64<<10); err != nil {
		t.Fatal(err)
	}
	if resp, body := s.do(t, "/o/000"); !bytes.Equal(body, want) || resp.Header.Get(XCacheHeader) != XCacheHit {
		t.Errorf("after a reopen: X-Cache %q, want the published bytes as a HIT", resp.Header.Get(XCacheHeader))
	}
	s.peer.CloseDiskCache()

	// A new peer knows nothing of the headers: a loader's hash vouches for
	// the recovered copy.
	p := NewPeer("tiered-2", 64<<10)
	if err := p.AttachDiskCache(s.dir, 192<<10, 64<<10); err != nil {
		t.Fatal(err)
	}
	defer p.CloseDiskCache()
	p.SignUp("prov", s.origin.URL)
	s.peerSrv = httptest.NewServer(p.Handler())
	defer s.peerSrv.Close()
	if resp, body := s.do(t, "/o/000", ExpectHashHeader, HashBytes(want)); !bytes.Equal(body, want) || resp.Header.Get(XCacheHeader) != XCacheStale {
		t.Errorf("on a new peer: X-Cache %q, want the published bytes as STALE", resp.Header.Get(XCacheHeader))
	}
	if s.fetches.Load() != fetches {
		t.Errorf("the copy cost %d origin fetches after a reopen", s.fetches.Load()-fetches)
	}
}

// TestReclaimCopyFlipQuarantines: the copy is not verified as it is
// written, and need not be: a byte flipped in it is caught by its first
// serve, which quarantines it and answers the published bytes from the
// origin.
func TestReclaimCopyFlipQuarantines(t *testing.T) {
	s, reclaim := newLapSite(t)
	st := s.peer.store.Load()
	want := s.objects["/o/000"]
	s.get(t, "/o/000")
	s.get(t, "/o/000")
	reclaim("/o/000")
	flipAtRest(t, st, "prov|/o/000", 100)
	fetches, quarantined := s.fetches.Load(), st.quarantined.Load()
	if resp, body := s.do(t, "/o/000"); !bytes.Equal(body, want) || resp.Header.Get(XCacheHeader) != XCacheMiss {
		t.Fatalf("a flipped copy: X-Cache %q, %v; want the published bytes as a MISS", resp.Header.Get(XCacheHeader), bytes.Equal(body, want))
	}
	if st.quarantined.Load() != quarantined+1 || s.fetches.Load() != fetches+1 {
		t.Errorf("quarantined +%d, origin fetches +%d; want 1 and 1", st.quarantined.Load()-quarantined, s.fetches.Load()-fetches)
	}
}

// TestAnswerDoesNotDependOnTier asks for one object in memory, then for the
// same object on disk, with a plain GET, a Range GET and an If-None-Match
// GET: each pair of answers has the same status, body and headers but
// Date. /x carries its origin's Content-Type; /x.css is filled as from an
// origin that sent none, so each tier names one itself.
func TestAnswerDoesNotDependOnTier(t *testing.T) {
	objects := map[string][]byte{"/x": obj(5, 100<<10), "/x.css": []byte(strings.Repeat("p { color: red }\n", 4<<10))}
	s := newTieredSite(t, 4<<20, 8<<20, 1<<20, objects)
	now := time.Unix(1_700_000_000, 0)
	s.peer.nowFn = func() time.Time { return now }
	s.get(t, "/x")
	css := objects["/x.css"]
	hash := HashBytes(css)
	s.peer.cachePut("prov|/x.css", css, sha256.Sum256(css), &entryMeta{hash: hash, etag: `"` + hash + `"`, fetchedAt: now})
	type answer struct {
		status int
		header http.Header
		te     []string
		body   []byte
	}
	for _, path := range []string{"/x", "/x.css"} {
		key := "prov|" + path
		etag, _ := s.do(t, path)
		requests := [][]string{nil, {"Range", "bytes=40000-50000"}, {"If-None-Match", etag.Header.Get("ETag")}}
		ask := func() []answer {
			var out []answer
			for _, hdr := range requests {
				resp, body := s.do(t, path, hdr...)
				resp.Header.Del("Date")
				out = append(out, answer{resp.StatusCode, resp.Header, resp.TransferEncoding, body})
			}
			return out
		}
		memHits, diskHits, _ := s.peer.TierStats()
		mem := ask()
		if m, d, _ := s.peer.TierStats(); m != memHits+3 || d != diskHits {
			t.Fatalf("%s not served from memory: mem %d→%d, disk %d→%d", path, memHits, m, diskHits, d)
		}
		cached, meta, _ := s.peer.cache.get(key)
		if err := s.peer.store.Load().put(key, cached, sha256.Sum256(cached), meta); err != nil {
			t.Fatal(err)
		}
		s.peer.cache.remove(key)
		disk := ask()
		if m, d, _ := s.peer.TierStats(); m != memHits+3 || d != diskHits+3 {
			t.Fatalf("%s not served from disk: mem %d→%d, disk %d→%d", path, memHits+3, m, diskHits, d)
		}
		for i, hdr := range requests {
			m, d := mem[i], disk[i]
			if m.status != d.status || !bytes.Equal(m.body, d.body) || !slices.Equal(m.te, d.te) {
				t.Errorf("%s %v: memory answers %d with %d bytes (%v), disk %d with %d bytes (%v)", path, hdr, m.status, len(m.body), m.te, d.status, len(d.body), d.te)
			}
			names := map[string]bool{}
			for _, h := range []http.Header{m.header, d.header} {
				for name := range h {
					names[name] = true
				}
			}
			for name := range names {
				if m.header.Get(name) != d.header.Get(name) {
					t.Errorf("%s %v: %s is %q from memory, %q from disk", path, hdr, name, m.header.Get(name), d.header.Get(name))
				}
			}
		}
	}
}

// TestStreamedServeAllocatesNoCopyBuffer counts the bytes a serve of a
// disk entry allocates, client and server together, through a real
// connection: a 1 MiB Range of it, and the whole of it as a bundle's one
// item. Both copies go through a pooled buffer, so neither allocates
// anything near net/http's 32 KiB copy buffer. Skipped under -race, whose
// runtime drops what sync.Pool is handed.
func TestStreamedServeAllocatesNoCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not judged under -race")
	}
	big := obj(9, 2<<20)
	s := newTieredSite(t, 64<<10, 64<<20, 8<<20, map[string][]byte{"/big": big})
	s.get(t, "/big")
	s.earnSums(t, "/big")
	for _, tc := range []struct {
		name, target, rng string
		status            int
		n                 int64
	}{
		{"1 MiB Range", "/proxy/prov/big", "bytes=0-1048575", http.StatusPartialContent, 1 << 20},
		{"bundle item", "/proxy/prov?o=/big&h=" + HashBytes(big), "", http.StatusOK, int64(len(big))},
	} {
		req, err := http.NewRequest(http.MethodGet, s.peerSrv.URL+tc.target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.rng != "" {
			req.Header.Set("Range", tc.rng)
		}
		client := s.peerSrv.Client()
		serve := func() {
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			n, _ := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status || n != tc.n {
				t.Fatalf("%s: status %d with %d bytes, want %d with %d", tc.name, resp.StatusCode, n, tc.status, tc.n)
			}
		}
		serve() // the connection and the pools
		const serves = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < serves; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		perServe := (after.TotalAlloc - before.TotalAlloc) / serves
		t.Logf("%s: %d bytes allocated per serve", tc.name, perServe)
		if perServe > 16<<10 {
			t.Errorf("%s: a serve allocated %d bytes; want under 16 KiB", tc.name, perServe)
		}
	}
}
