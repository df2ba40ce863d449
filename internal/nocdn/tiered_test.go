package nocdn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// tieredSite is one origin + one disk-tiered peer over real HTTP. The
// memory tier is deliberately tiny so the working set churns through the
// segment store.
type tieredSite struct {
	origin  *httptest.Server
	peer    *Peer
	peerSrv *httptest.Server
	objects map[string][]byte
	fetches atomic.Int64
	dir     string // the disk tier's directory
}

func newTieredSite(t *testing.T, memBytes int, diskBytes, segBytes int64, objects map[string][]byte) *tieredSite {
	t.Helper()
	s := &tieredSite{objects: objects}
	s.origin = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.fetches.Add(1)
		data, ok := objects[strings.TrimPrefix(r.URL.Path, "/content")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(s.origin.Close)
	s.peer = NewPeer("tiered", memBytes)
	s.peer.SetMetrics(hpop.NewMetrics())
	s.dir = t.TempDir()
	if err := s.peer.AttachDiskCache(s.dir, diskBytes, segBytes); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.peer.CloseDiskCache)
	s.peer.SignUp("prov", s.origin.URL)
	s.peerSrv = httptest.NewServer(s.peer.Handler())
	t.Cleanup(s.peerSrv.Close)
	return s
}

func (s *tieredSite) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestTieredSpillAndPromote drives a working set several times the memory
// budget through the peer: early objects must spill to disk on eviction,
// and a request for a spilled object must be served from the disk tier
// (hash-verified promotion), not by refetching the origin.
func TestTieredSpillAndPromote(t *testing.T) {
	objects := make(map[string][]byte)
	for i := 0; i < 32; i++ {
		objects[fmt.Sprintf("/o/%02d", i)] = obj(i, 8<<10)
	}
	// 64 KiB of memory across 16 shards vs a 256 KiB working set.
	s := newTieredSite(t, 64<<10, 8<<20, 64<<10, objects)

	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: wrong bytes on fill", path)
		}
	}
	entries, _, _ := s.peer.DiskCacheStats()
	if entries == 0 {
		t.Fatal("nothing spilled to the disk tier")
	}
	coldFetches := s.fetches.Load()

	// Sweep the whole working set again: everything is cached in one tier
	// or the other, so the origin must see zero new fetches.
	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: wrong bytes on warm sweep", path)
		}
	}
	if got := s.fetches.Load(); got != coldFetches {
		t.Fatalf("origin refetched on warm sweep: %d -> %d (disk tier not serving)", coldFetches, got)
	}
	mem, disk, _ := s.peer.TierStats()
	if disk == 0 {
		t.Fatalf("no disk-tier hits (mem=%d disk=%d)", mem, disk)
	}
}

// TestTieredLargeObjectStreams: an object too big for any memory shard must
// be cached on disk and served (zero-copy path) without an origin refetch,
// including Range requests via http.ServeContent.
func TestTieredLargeObjectStreams(t *testing.T) {
	big := obj(42, 300<<10) // 300 KiB vs 4 KiB memory shards
	objects := map[string][]byte{"/big": big}
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, objects)

	if got := s.get(t, "/big"); !bytes.Equal(got, big) {
		t.Fatal("first fetch of large object corrupted")
	}
	if entries, _, _ := s.peer.DiskCacheStats(); entries != 1 {
		t.Fatal("large object not cached on disk")
	}
	if got := s.get(t, "/big"); !bytes.Equal(got, big) {
		t.Fatal("disk-streamed large object corrupted")
	}
	if got := s.fetches.Load(); got != 1 {
		t.Fatalf("origin fetched %d times, want 1 (second serve from disk)", got)
	}
	_, disk, _ := s.peer.TierStats()
	if disk == 0 {
		t.Fatal("large-object serve not counted as a disk hit")
	}

	// Range request over the zero-copy path.
	req, _ := http.NewRequest(http.MethodGet, s.peerSrv.URL+"/proxy/prov/big", nil)
	req.Header.Set("Range", "bytes=1000-1999")
	resp, err := s.peerSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range status = %d, want 206", resp.StatusCode)
	}
	part, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(part, big[1000:2000]) {
		t.Fatal("range over disk stream returned wrong bytes")
	}
}

// TestTieredLateMissFindsDiskFill: a request that missed just as another
// request's fill of a large object finished reaches serveMiss after the
// flight has closed. Its re-check must find the copy on the disk tier — the
// only tier a large object lands in — rather than fetch it again; and a
// request expecting another hash epoch must still refetch.
func TestTieredLateMissFindsDiskFill(t *testing.T) {
	big := obj(7, 300<<10) // 300 KiB vs 4 KiB memory shards
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, map[string][]byte{"/big": big})
	s.get(t, "/big")

	out, err := s.peer.serveMiss(s.origin.URL, "prov|/big", "prov|/big", "/big", "", http.Header{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.data, big) {
		t.Fatal("late miss returned wrong bytes")
	}
	if got := s.fetches.Load(); got != 1 {
		t.Fatalf("origin fetched %d times, want 1 (the late miss reads the disk fill)", got)
	}

	if _, err := s.peer.serveMiss(s.origin.URL, "prov|/big", "prov|/big", "/big", strings.Repeat("0", 64), http.Header{}); err != nil {
		t.Fatal(err)
	}
	if got := s.fetches.Load(); got != 2 {
		t.Fatalf("origin fetched %d times, want 2 (another epoch refetches)", got)
	}
}

// TestTieredCorruptDiskRefetch flips bits in the segment files, then asks
// for the spilled objects again: the peer must detect the mismatch on
// promotion, quarantine the entry, and refetch clean bytes from the origin
// — corrupt disk bytes are never served.
func TestTieredCorruptDiskRefetch(t *testing.T) {
	objects := make(map[string][]byte)
	for i := 0; i < 16; i++ {
		objects[fmt.Sprintf("/o/%02d", i)] = obj(i, 8<<10)
	}
	s := newTieredSite(t, 32<<10, 8<<20, 1<<20, objects)
	for i := 0; i < 16; i++ {
		s.get(t, fmt.Sprintf("/o/%02d", i))
	}
	st := s.peer.store.Load()
	entries, _, _ := s.peer.DiskCacheStats()
	if entries == 0 {
		t.Fatal("nothing on disk to corrupt")
	}
	// Flip a byte in every live entry.
	st.mu.Lock()
	for _, e := range st.index {
		seg := st.segments[e.seg]
		var b [1]byte
		seg.f.ReadAt(b[:], e.off)
		b[0] ^= 0x80
		seg.f.WriteAt(b[:], e.off)
	}
	st.mu.Unlock()

	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: served corrupt bytes", path)
		}
	}
	if q := st.quarantined.Load(); q == 0 {
		t.Fatal("no entries quarantined despite corruption")
	}
}

// TestTieredPropertyEveryByteMatches is the eviction/promotion property
// test: a randomized mix of requests over a working set much larger than
// memory — every response must byte-match the origin's truth regardless of
// which tier served it, and the peer's own tier accounting must cover every
// request.
func TestTieredPropertyEveryByteMatches(t *testing.T) {
	rng := sim.NewRNG(7)
	objects := make(map[string][]byte)
	paths := make([]string, 0, 48)
	for i := 0; i < 48; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		size := 1<<10 + int(rng.Intn(12<<10))
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		objects[path] = data
		paths = append(paths, path)
	}
	s := newTieredSite(t, 48<<10, 8<<20, 32<<10, objects)

	const requests = 600
	for i := 0; i < requests; i++ {
		path := paths[rng.Intn(len(paths))]
		want := objects[path]
		got := s.get(t, path)
		if !bytes.Equal(got, want) {
			sum := sha256.Sum256(got)
			t.Fatalf("request %d for %s: served bytes (sha %x…) differ from origin truth", i, path, sum[:6])
		}
	}
	mem, disk, miss := s.peer.TierStats()
	if mem+disk+miss != requests {
		t.Fatalf("tier accounting %d+%d+%d != %d requests", mem, disk, miss, requests)
	}
	if disk == 0 {
		t.Fatal("property run never exercised the disk tier")
	}
	t.Logf("tiers: mem=%d disk=%d origin=%d (working set %d KiB vs 48 KiB memory)",
		mem, disk, miss, 48*7)
}

// TestTieredHammer is the -race workout: concurrent readers over a
// disk-spilling working set, mixed with segment scrubs, at-rest corruption,
// stats polls, and rotation — every served byte still matching the origin.
func TestTieredHammer(t *testing.T) {
	objects := make(map[string][]byte)
	paths := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		objects[path] = obj(i, 4<<10)
		paths = append(paths, path)
	}
	s := newTieredSite(t, 32<<10, 1<<20, 16<<10, objects)

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w + 1))
			for i := 0; i < iters; i++ {
				path := paths[rng.Intn(len(paths))]
				resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov" + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body, objects[path]) {
					errs <- fmt.Errorf("hammer: %s served wrong bytes", path)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // scrubber racing the serving path
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.peer.ScrubCache()
		}
	}()
	wg.Add(1)
	go func() { // stats/gauges racing everything
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.peer.DiskCacheStats()
			s.peer.TierStats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mem, disk, miss := s.peer.TierStats()
	if mem+disk+miss != workers*iters {
		t.Fatalf("tier accounting %d+%d+%d != %d", mem, disk, miss, workers*iters)
	}
}

// TestTieredMemoryOnlyUnchanged: without AttachDiskCache the peer behaves
// exactly as the seed did — evictions are gone for good and refetch from
// the origin.
func TestTieredMemoryOnlyUnchanged(t *testing.T) {
	objects := map[string][]byte{
		"/a": obj(1, 8<<10),
		"/b": obj(2, 8<<10),
	}
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		w.Write(objects[strings.TrimPrefix(r.URL.Path, "/content")])
	}))
	defer origin.Close()
	p := NewPeer("memonly", 1<<20)
	p.SignUp("prov", origin.URL)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for _, path := range []string{"/a", "/b", "/a"} {
		resp, err := srv.Client().Get(srv.URL + "/proxy/prov" + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("origin fetches = %d, want 2", got)
	}
	if entries, bytes_, segs := p.DiskCacheStats(); entries != 0 || bytes_ != 0 || segs != 0 {
		t.Fatal("memory-only peer reports a disk tier")
	}
	if checked, _ := p.ScrubCache(); checked != 0 {
		t.Fatal("memory-only ScrubCache checked entries")
	}
}

// do issues one GET for path with the given header pairs and returns the
// response with its body read to the end. A body cut short — what a tripped
// windowReader looks like from outside — fails the test.
func (s *tieredSite) do(t *testing.T, path string, hdr ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, s.peerSrv.URL+"/proxy/prov"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := s.peerSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s %v: body cut after %d bytes: %v", path, hdr, len(body), err)
	}
	return resp, body
}

// earnSums makes sure path's disk entry has its block sums: any streamed
// serve of an entry that has none runs the whole-object pass that earns them.
func (s *tieredSite) earnSums(t *testing.T, path string) {
	t.Helper()
	st := s.peer.store.Load()
	if blocksOf(st, "prov|"+path) == nil {
		s.do(t, path, "Range", "bytes=0-0")
	}
	if blocksOf(st, "prov|"+path) == nil {
		t.Fatalf("%s: a streamed serve did not earn block sums", path)
	}
}

// byteRange is one single-part Range a test asks for; open leaves the end
// off ("bytes=a-").
type byteRange struct {
	start, end int // [start, end)
	open       bool
}

func (r byteRange) header() string {
	if r.open {
		return fmt.Sprintf("bytes=%d-", r.start)
	}
	return fmt.Sprintf("bytes=%d-%d", r.start, r.end-1)
}

func (r byteRange) covers(block int) bool {
	return r.start/segBlockSize <= block && block <= (r.end-1)/segBlockSize
}

// TestTieredWindowedVerifyBlockFlips rots a streamed object one block at a
// time, with its block sums earned. Every Range whose bytes touch the rotten
// block quarantines the entry, refetches inside the request and answers the
// published bytes; every Range that does not is served off the disk — still
// verified, still the published bytes — with no origin fetch. 300 KiB is
// rotted in every block; 4 MiB, the benchmark's object, in the blocks either
// side of each loader-chunk boundary and at both ends.
func TestTieredWindowedVerifyBlockFlips(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		blocks []int
	}{
		{"300KiB", 300 << 10, []int{0, 1, 2, 3, 4}},
		{"4MiB", 4 << 20, []int{0, 15, 16, 47, 48, 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			big := obj(42, tc.size)
			s := newTieredSite(t, 64<<10, 64<<20, 8<<20, map[string][]byte{"/big": big})
			st := s.peer.store.Load()
			s.get(t, "/big") // fill: straight to disk, too big for a 4 KiB shard

			quarter := (tc.size + 3) / 4
			var ranges []byteRange
			for i := 0; i < 4; i++ { // the loader's four chunks
				ranges = append(ranges, byteRange{start: i * quarter, end: min((i+1)*quarter, tc.size)})
			}
			for b := 0; b*segBlockSize < tc.size; b += max(1, tc.size/segBlockSize/8) {
				lo := b * segBlockSize
				ranges = append(ranges,
					byteRange{start: lo, end: min(lo+segBlockSize, tc.size)}, // one block exactly
					byteRange{start: lo + 100, end: lo + 200})                // inside one block
				if b > 0 {
					ranges = append(ranges, byteRange{start: lo - 50, end: lo + 50}) // astride a block edge
				}
			}
			ranges = append(ranges, byteRange{start: tc.size - quarter + 5, end: tc.size, open: true})

			check := func(r byteRange, wantFetches int64, wantQuarantined int64, what string) {
				t.Helper()
				resp, body := s.do(t, "/big", "Range", r.header())
				if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, big[r.start:r.end]) {
					t.Fatalf("%s: Range %s: status %d, %d bytes; want 206 and the published %d",
						what, r.header(), resp.StatusCode, len(body), r.end-r.start)
				}
				if got := s.fetches.Load(); got != wantFetches {
					t.Fatalf("%s: Range %s: origin fetches = %d, want %d", what, r.header(), got, wantFetches)
				}
				if got := st.quarantined.Load(); got != wantQuarantined {
					t.Fatalf("%s: Range %s: quarantined = %d, want %d", what, r.header(), got, wantQuarantined)
				}
			}
			for _, b := range tc.blocks {
				flipAt := int64(b*segBlockSize + 9)
				s.earnSums(t, "/big")
				flipAtRest(t, st, "prov|/big", flipAt)
				fetches, quarantined := s.fetches.Load(), st.quarantined.Load()
				covering := 0
				for _, r := range ranges {
					if !r.covers(b) {
						check(r, fetches, quarantined, fmt.Sprintf("block %d rotten, range clear of it", b))
					}
				}
				for _, r := range ranges {
					if !r.covers(b) {
						continue
					}
					if covering > 0 { // the last one refetched a clean copy: rot it again
						s.earnSums(t, "/big")
						flipAtRest(t, st, "prov|/big", flipAt)
					}
					covering++
					fetches, quarantined = fetches+1, quarantined+1
					check(r, fetches, quarantined, fmt.Sprintf("block %d rotten, range over it", b))
				}
				if covering == 0 {
					t.Fatalf("no test range covers block %d", b)
				}
			}
		})
	}
}

// TestTieredStreamedFlipBeforeFirstServe: a disk entry that rots before any
// streamed serve has earned its sums is caught by the whole-object pass,
// whatever bytes the request asked for; and one that rots after, and is never
// asked for again, by the scrubber.
func TestTieredStreamedFlipBeforeFirstServe(t *testing.T) {
	big := obj(42, 300<<10)
	s := newTieredSite(t, 64<<10, 64<<20, 8<<20, map[string][]byte{"/big": big})
	st := s.peer.store.Load()
	s.get(t, "/big")
	if blocksOf(st, "prov|/big") != nil {
		t.Fatal("sums present before any streamed serve")
	}
	flipAtRest(t, st, "prov|/big", int64(len(big)-1))    // last block
	resp, body := s.do(t, "/big", "Range", "bytes=0-99") // first block
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, big[:100]) {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if s.fetches.Load() != 2 || st.quarantined.Load() != 1 {
		t.Fatalf("fetches=%d quarantined=%d, want 2/1: the whole-object pass must catch a flip outside the window",
			s.fetches.Load(), st.quarantined.Load())
	}
	s.earnSums(t, "/big")
	flipAtRest(t, st, "prov|/big", 2*segBlockSize)
	if checked, q := s.peer.ScrubCache(); checked != 1 || q != 1 {
		t.Fatalf("scrub: checked=%d quarantined=%d, want 1/1", checked, q)
	}
	if got := s.get(t, "/big"); !bytes.Equal(got, big) || s.fetches.Load() != 3 {
		t.Fatalf("after scrub: %d bytes, %d fetches; want the published bytes from a third fetch", len(got), s.fetches.Load())
	}
}

// TestTieredStreamedRangeMatchesNetHTTP asks a streamed entry for every
// shape of Range net/http understands and compares the answer with
// http.ServeContent over the published bytes in memory. An honest request
// never trips the fail-closed reader (do would see a cut body), never
// touches the origin, and hashes its window — or everything, when the
// request is one streamOutcome does not resolve itself.
func TestTieredStreamedRangeMatchesNetHTTP(t *testing.T) {
	big := obj(42, 300<<10)
	n := int64(len(big))
	s := newTieredSite(t, 64<<10, 64<<20, 8<<20, map[string][]byte{"/big": big})
	st := s.peer.store.Load()
	s.get(t, "/big")
	s.earnSums(t, "/big")
	first, _ := s.do(t, "/big")
	etag, ctype := first.Header.Get("ETag"), first.Header.Get("Content-Type")
	if etag == "" || ctype == "" {
		t.Fatalf("ETag %q, Content-Type %q", etag, ctype)
	}
	fetches := s.fetches.Load()

	const block = segBlockSize
	for _, tc := range []struct {
		name   string
		hdr    []string
		hashed int64 // bytes verification must read
	}{
		{"no range", nil, n},
		{"aligned", []string{"Range", "bytes=65536-131071"}, block},
		{"unaligned", []string{"Range", "bytes=1000-1999"}, block},
		{"astride two blocks", []string{"Range", "bytes=65000-66000"}, 2 * block},
		{"open-ended", []string{"Range", "bytes=70000-"}, n - block},
		{"end past the object", []string{"Range", "bytes=262144-999999"}, n - 4*block},
		{"suffix", []string{"Range", "bytes=-500"}, n},
		{"multi-range", []string{"Range", "bytes=0-99,200000-200099"}, n},
		{"If-Range matches", []string{"Range", "bytes=100-199", "If-Range", etag}, n},
		{"If-Range does not match", []string{"Range", "bytes=100-199", "If-Range", `"stale"`}, n},
		{"unsatisfiable", []string{"Range", "bytes=999999-"}, n},
		{"not a range", []string{"Range", "pages=1-2"}, n},
		{"If-None-Match", []string{"If-None-Match", etag}, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := st.hashed.Load()
			got, gotBody := s.do(t, "/big", tc.hdr...)
			if hashed := st.hashed.Load() - before; hashed != tc.hashed {
				t.Errorf("verification read %d bytes, want %d", hashed, tc.hashed)
			}
			matchServeContent(t, big, etag, ctype, tc.hdr, got, gotBody, "Content-Range", "Accept-Ranges", "ETag")
		})
	}
	if s.fetches.Load() != fetches || st.quarantined.Load() != 0 {
		t.Errorf("honest requests cost %d origin fetches and %d quarantines",
			s.fetches.Load()-fetches, st.quarantined.Load())
	}
}

// TestMemoryTierRangeMatchesNetHTTP asks a memory-tier entry for the same
// shapes of Range and validator and compares the answer with
// http.ServeContent over the published bytes, as the streamed test does for
// the disk tier: both tiers answer a request the same way. (A plain GET of a
// memory entry is one direct write, without net/http's Accept-Ranges.)
func TestMemoryTierRangeMatchesNetHTTP(t *testing.T) {
	small := obj(43, 40<<10)
	s := newTieredSite(t, 4<<20, 64<<20, 8<<20, map[string][]byte{"/small": small})
	s.get(t, "/small")
	first, _ := s.do(t, "/small")
	etag, ctype := first.Header.Get("ETag"), first.Header.Get("Content-Type")
	if etag == "" || ctype == "" {
		t.Fatalf("ETag %q, Content-Type %q", etag, ctype)
	}
	fetches := s.fetches.Load()
	for _, tc := range []struct {
		name string
		hdr  []string
	}{
		{"no range", nil},
		{"closed", []string{"Range", "bytes=1000-1999"}},
		{"open-ended", []string{"Range", "bytes=30000-"}},
		{"end past the object", []string{"Range", "bytes=40000-999999"}},
		{"suffix", []string{"Range", "bytes=-500"}},
		{"multi-range", []string{"Range", "bytes=0-99,20000-20099"}},
		{"If-Range matches", []string{"Range", "bytes=100-199", "If-Range", etag}},
		{"If-Range does not match", []string{"Range", "bytes=100-199", "If-Range", `"stale"`}},
		{"unsatisfiable", []string{"Range", "bytes=999999-"}},
		{"not a range", []string{"Range", "pages=1-2"}},
		{"If-None-Match", []string{"If-None-Match", etag}},
		{"If-Match does not match", []string{"If-Match", `"stale"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			memHits := s.peer.memHits.Load()
			got, gotBody := s.do(t, "/small", tc.hdr...)
			if s.peer.memHits.Load() != memHits+1 {
				t.Fatal("not served from the memory tier")
			}
			matchServeContent(t, small, etag, ctype, tc.hdr, got, gotBody, "Content-Range", "ETag")
		})
	}
	if s.fetches.Load() != fetches {
		t.Errorf("honest requests cost %d origin fetches", s.fetches.Load()-fetches)
	}
}

// TestMemoryTierGetDeclaresLength: a plain GET of a memory entry — what
// browsers, cdntest and bench's prefetch send — goes out under a
// Content-Length, not chunked: one write of a known size.
func TestMemoryTierGetDeclaresLength(t *testing.T) {
	small := obj(44, 8<<10)
	s := newTieredSite(t, 4<<20, 64<<20, 8<<20, map[string][]byte{"/small": small})
	s.get(t, "/small")
	memHits := s.peer.memHits.Load()
	resp, body := s.do(t, "/small")
	if s.peer.memHits.Load() != memHits+1 {
		t.Fatal("not served from the memory tier")
	}
	if !bytes.Equal(body, small) {
		t.Fatal("served other bytes than the published ones")
	}
	if resp.ContentLength != int64(len(small)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("ContentLength=%d TransferEncoding=%v, want %d and none", resp.ContentLength, resp.TransferEncoding, len(small))
	}
}

// matchServeContent compares a peer's answer to a request carrying hdr with
// http.ServeContent's over data: status, the headers named, Content-Type and
// body (part by part for a multipart answer).
func matchServeContent(t *testing.T, data []byte, etag, ctype string, hdr []string, got *http.Response, gotBody []byte, headers ...string) {
	t.Helper()
	ref := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	for i := 0; i < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	ref.Header().Set("ETag", etag)
	ref.Header().Set("Content-Type", ctype)
	http.ServeContent(ref, req, "", time.Time{}, bytes.NewReader(data))
	want := ref.Result()
	wantBody, _ := io.ReadAll(want.Body)
	if got.StatusCode != want.StatusCode {
		t.Fatalf("status %d, net/http answers %d", got.StatusCode, want.StatusCode)
	}
	for _, h := range headers {
		if got.Header.Get(h) != want.Header.Get(h) {
			t.Errorf("%s = %q, net/http answers %q", h, got.Header.Get(h), want.Header.Get(h))
		}
	}
	gotType, gotParams, _ := mime.ParseMediaType(got.Header.Get("Content-Type"))
	wantType, wantParams, _ := mime.ParseMediaType(want.Header.Get("Content-Type"))
	if gotType != wantType {
		t.Fatalf("Content-Type %q, net/http answers %q", gotType, wantType)
	}
	if gotType == "multipart/byteranges" { // boundaries are random: compare part by part
		gotBody = flattenParts(t, gotBody, gotParams["boundary"])
		wantBody = flattenParts(t, wantBody, wantParams["boundary"])
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Errorf("body is %d bytes and differs from net/http's %d", len(gotBody), len(wantBody))
	}
}

// flattenParts renders a multipart/byteranges body as its parts' headers
// and bytes, without the boundary.
func flattenParts(t *testing.T, body []byte, boundary string) []byte {
	t.Helper()
	var out bytes.Buffer
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s|%s|", part.Header.Get("Content-Range"), part.Header.Get("Content-Type"))
		if _, err := io.Copy(&out, part); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredReopenReearnsBlockSums restarts the disk tier under a peer, and
// then the peer itself. Block sums are kept nowhere on disk, so the first
// streamed serve after either re-verifies the whole object against the
// record header and later Ranges go back to hashing their window. A fresh
// peer has no stored Content-Type for the entry either: it names the type
// net/http would have sniffed, from the verified head of the object, for
// one block's extra hashing.
func TestTieredReopenReearnsBlockSums(t *testing.T) {
	const quarter = 1 << 20
	big := append([]byte("<html><body>"), obj(42, 4<<20-12)...)
	n := int64(len(big))
	s := newTieredSite(t, 64<<10, 64<<20, 8<<20, map[string][]byte{"/big": big})
	s.get(t, "/big")
	s.earnSums(t, "/big")

	chunk := func(p *tieredSite, st *segmentStore, i int, wantHashed int64, hdr ...string) *http.Response {
		t.Helper()
		before := st.hashed.Load()
		resp, body := p.do(t, "/big", append(hdr, "Range", fmt.Sprintf("bytes=%d-%d", i*quarter, (i+1)*quarter-1))...)
		if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, big[i*quarter:(i+1)*quarter]) {
			t.Fatalf("chunk %d: status %d, %d bytes", i, resp.StatusCode, len(body))
		}
		if hashed := st.hashed.Load() - before; hashed != wantHashed {
			t.Fatalf("chunk %d: verification read %d bytes, want %d", i, hashed, wantHashed)
		}
		return resp
	}
	st := s.peer.store.Load()
	chunk(s, st, 1, quarter)

	s.peer.CloseDiskCache()
	if err := s.peer.AttachDiskCache(s.dir, 64<<20, 8<<20); err != nil {
		t.Fatal(err)
	}
	st = s.peer.store.Load()
	chunk(s, st, 2, n)       // re-earns
	chunk(s, st, 3, quarter) // spends
	s.peer.CloseDiskCache()

	// A new process on the same directory: same origin, no memory of headers.
	restarted := &tieredSite{objects: s.objects, origin: s.origin, dir: s.dir}
	restarted.peer = NewPeer("tiered", 64<<10)
	if err := restarted.peer.AttachDiskCache(s.dir, 64<<20, 8<<20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.peer.CloseDiskCache)
	restarted.peer.SignUp("prov", s.origin.URL)
	restarted.peerSrv = httptest.NewServer(restarted.peer.Handler())
	t.Cleanup(restarted.peerSrv.Close)
	st = restarted.peer.store.Load()
	sum := sha256.Sum256(big)
	expect := []string{ExpectHashHeader, hex.EncodeToString(sum[:])} // a loader's request: served off the recovered entry
	resp := chunk(restarted, st, 1, n, expect...)
	if got := resp.Header.Get("Content-Type"); got != http.DetectContentType(big[:512]) || !strings.HasPrefix(got, "text/html") {
		t.Errorf("Content-Type of a recovered entry = %q, want what net/http sniffs from its head (%q)", got, http.DetectContentType(big[:512]))
	}
	resp = chunk(restarted, st, 3, quarter+segBlockSize, expect...) // its window, and the head for the type
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/html") {
		t.Errorf("Content-Type of a recovered entry's later chunk = %q", got)
	}
	chunk(restarted, st, 0, quarter, expect...) // the head is inside the window: nothing extra
	if got := s.fetches.Load(); got != 1 {
		t.Errorf("origin fetched %d times across two restarts, want the one fill", got)
	}
}
