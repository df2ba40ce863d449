package faults_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hpop/internal/adversary"
	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// TestChaosSegmentBitflipAtRest extends the bitflip fault to the peer's
// disk cache tier: after a working set spills to segment files, an
// injector-chosen subset of entries is flipped at rest (the PR 2 bitflip
// kind, applied to the segment store instead of a wire). The invariants:
//
//  1. the segment scrubber quarantines every flipped entry,
//  2. re-requesting a quarantined object refetches clean bytes from the
//     origin (a miss, never a corrupt serve),
//  3. corrupt disk bytes are NEVER served — every response byte-matches
//     the origin's truth,
//
// so the chaos suite's "no unverified bytes" invariant now holds at rest.
// Deterministic per seed; runs seeds 1, 7, and 1337.
func TestChaosSegmentBitflipAtRest(t *testing.T) { forChaosSeeds(t, chaosSegmentBitflipAtRest) }

func chaosSegmentBitflipAtRest(t *testing.T, seed uint64) {
	// The bitflip decision stream: roughly a third of the disk-resident
	// entries rot. Which ones is a pure function of the seed.
	sched := mustSchedule(t, seed, `bitflip p=0.35 match=/o/`)
	inj := faults.NewInjector(sched)

	const objects = 24
	truth := make(map[string][]byte)
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		data := make([]byte, 8<<10)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		truth[path] = data
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, ok := truth[strings.TrimPrefix(r.URL.Path, "/content")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	defer origin.Close()

	metrics := hpop.NewMetrics()
	// 32 KiB of memory vs a 192 KiB working set: most entries live on disk.
	peer := nocdn.NewPeer("chaos-disk", 32<<10)
	peer.SetMetrics(metrics)
	cacheDir := t.TempDir()
	if err := peer.AttachDiskCache(cacheDir, 8<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	defer peer.CloseDiskCache()
	peer.SignUp("prov", origin.URL)
	srv := httptest.NewServer(peer.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := srv.Client().Get(srv.URL + "/proxy/prov" + path)
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

	// Fill: every object passes through memory; evictions spill to disk.
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if !bytes.Equal(get(path), truth[path]) {
			t.Fatalf("fill: %s corrupted", path)
		}
	}
	if entries, _, _ := peer.DiskCacheStats(); entries == 0 {
		t.Fatal("working set never spilled to the segment store")
	}

	// Rot: the injector picks the victims, adversary.FlipAtRest flips their
	// bytes in the segment files. Only disk-resident entries can rot
	// (memory-tier residents report false and are skipped, exactly like a
	// disk that only damages what it holds).
	flipped := make(map[string]bool)
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if d := inj.Decide(path); d.Kind == faults.KindBitflip {
			if adversary.FlipAtRest(cacheDir, truth[path]) {
				flipped[path] = true
			}
		}
	}
	if len(flipped) == 0 {
		t.Fatalf("seed %d flipped no disk-resident entries; loosen the schedule", seed)
	}
	t.Logf("seed %d: flipped %d of %d objects at rest", seed, len(flipped), objects)

	// Scrub: every flipped entry must be quarantined, every intact entry
	// left alone.
	checked, quarantined := peer.ScrubCache()
	if quarantined != len(flipped) {
		t.Fatalf("scrub quarantined %d entries, want %d (checked %d)",
			quarantined, len(flipped), checked)
	}
	if got := metrics.Counter("nocdn.scrub.quarantined"); got != float64(len(flipped)) {
		t.Fatalf("nocdn.scrub.quarantined = %v, want %d", got, len(flipped))
	}

	// Serve everything again: quarantined objects must come back as clean
	// origin refetches; nothing may ever serve the flipped bytes.
	_, _, missesBefore := peer.TierStats()
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := get(path); !bytes.Equal(got, truth[path]) {
			t.Fatalf("post-scrub: %s served corrupt bytes (flipped=%v)", path, flipped[path])
		}
	}
	_, _, missesAfter := peer.TierStats()
	if refetches := missesAfter - missesBefore; refetches < int64(len(flipped)) {
		t.Fatalf("only %d origin refetches for %d quarantined entries", refetches, len(flipped))
	}

	// A second scrub pass is clean: the refetched copies are intact.
	if _, q2 := peer.ScrubCache(); q2 != 0 {
		t.Fatalf("second scrub still quarantined %d entries", q2)
	}
}

// TestChaosSegmentBitflipWithoutScrub covers the other path to safety: the
// scrubber hasn't run yet, so the promotion read itself must catch the
// at-rest flip, quarantine the entry, and fall through to the origin within
// the same request.
func TestChaosSegmentBitflipWithoutScrub(t *testing.T) {
	forChaosSeeds(t, chaosSegmentBitflipWithoutScrub)
}

func chaosSegmentBitflipWithoutScrub(t *testing.T, seed uint64) {
	sched := mustSchedule(t, seed, `bitflip p=0.5 match=/o/`)
	inj := faults.NewInjector(sched)

	const objects = 12
	truth := make(map[string][]byte)
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 6<<10)
		truth[path] = data
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(truth[strings.TrimPrefix(r.URL.Path, "/content")])
	}))
	defer origin.Close()

	peer := nocdn.NewPeer("chaos-disk2", 16<<10)
	peer.SetMetrics(hpop.NewMetrics())
	cacheDir := t.TempDir()
	if err := peer.AttachDiskCache(cacheDir, 8<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	defer peer.CloseDiskCache()
	peer.SignUp("prov", origin.URL)
	srv := httptest.NewServer(peer.Handler())
	defer srv.Close()

	for i := 0; i < objects; i++ {
		resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/proxy/prov/o/%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	flips := 0
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if d := inj.Decide(path); d.Kind == faults.KindBitflip && adversary.FlipAtRest(cacheDir, truth[path]) {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("seed %d produced no flips", seed)
	}
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		resp, err := srv.Client().Get(srv.URL + "/proxy/prov" + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, truth[path]) {
			t.Fatalf("%s: promotion served corrupt bytes without scrub", path)
		}
	}
}

// TestChaosSegmentBitflipStreamed is the at-rest bitflip on the path the two
// tests above never reach: objects too large for a memory shard, which are
// not promoted but streamed off the segment file, fetched the way a browser
// fetches them — a Loader following a chunked wrapper, four Range requests
// per object over the peers. A streamed serve verifies the blocks covering
// the bytes it was asked for, so a rotten block fails only the chunk that
// covers it; the invariants are the same:
//
//  1. no response carries a flipped byte — every view renders the published
//     bytes with no tamper detection and no origin fallback on the loader's
//     side, because the peer caught the flip before writing a header;
//  2. every victim ends quarantined, by the serve whose chunk covered the
//     flip or, for a (peer, object) nobody asked for that chunk of, by the
//     scrubber;
//  3. every victim is refetched from the origin exactly once, and nothing
//     else is.
//
// Deterministic per seed; runs seeds 1, 7, and 1337.
func TestChaosSegmentBitflipStreamed(t *testing.T) { forChaosSeeds(t, chaosSegmentBitflipStreamed) }

func chaosSegmentBitflipStreamed(t *testing.T, seed uint64) {
	inj := faults.NewInjector(mustSchedule(t, seed, `bitflip p=0.5 match=/o/`))

	const (
		objects    = 6
		objectSize = 512 << 10 // eight 64 KiB blocks; four 128 KiB chunks
		peerCount  = 2
	)
	rng := sim.NewRNG(seed)
	published := map[string][]byte{"/index.html": []byte("<html>streamed chaos</html>")}
	page := nocdn.Page{Name: "home", Container: "/index.html"}
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		data := make([]byte, objectSize)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		published[path] = data
		page.Embedded = append(page.Embedded, path)
	}
	origin := nocdn.NewOrigin("example.com", nocdn.WithRNG(sim.NewRNG(seed)), nocdn.WithChunking(4, 64<<10))
	for path, data := range published {
		origin.AddObject(path, data)
	}
	if err := origin.AddPage(page); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	type diskPeer struct {
		*nocdn.Peer
		metrics  *hpop.Metrics
		cacheDir string
	}
	var peers []diskPeer
	for i := 0; i < peerCount; i++ {
		// 256 KiB of memory is 16 KiB shards: the container fits, the
		// objects can only live on disk.
		p := diskPeer{nocdn.NewPeer(fmt.Sprintf("home-%d", i), 256<<10), hpop.NewMetrics(), t.TempDir()}
		p.SetMetrics(p.metrics)
		if err := p.AttachDiskCache(p.cacheDir, 64<<20, 8<<20); err != nil {
			t.Fatal(err)
		}
		defer p.CloseDiskCache()
		p.SignUp("example.com", originSrv.URL)
		srv := httptest.NewServer(p.Handler())
		defer srv.Close()
		origin.RegisterPeer(p.ID, srv.URL, 10)
		peers = append(peers, p)
	}

	// Several clients, so the pooled maps between them ask every peer for
	// more than one chunk position of an object. Each loader fetches its
	// chunks concurrently, as a browser does, so two chunks of one entry can
	// miss on either side of its refetch: invariant 3 holds only because the
	// later miss finds the refetched copy on the disk tier.
	const clients = 8
	viewAll := func(phase string) {
		t.Helper()
		for c := 0; c < clients; c++ {
			l := &nocdn.Loader{OriginURL: originSrv.URL, ClientID: fmt.Sprintf("client-%d", c), Retry: fastRetry(2)}
			res, err := l.LoadPage("home")
			if err != nil {
				t.Fatalf("%s: client %d: %v", phase, c, err)
			}
			if res.TamperDetected || len(res.FallbackObjects) != 0 || len(res.Degraded) != 0 {
				t.Fatalf("%s: client %d saw a peer's bad bytes: tamper=%v fallbacks=%v degraded=%v",
					phase, c, res.TamperDetected, res.FallbackObjects, res.Degraded)
			}
			for path, want := range published {
				if !bytes.Equal(res.Body[path], want) {
					t.Fatalf("%s: client %d rendered %s as bytes that are not the published ones", phase, c, path)
				}
			}
		}
	}
	viewAll("fill")  // misses: every peer fetches every object it is asked a chunk of
	viewAll("earn")  // streamed serves: whole-object pass, block sums earned
	viewAll("clean") // windowed serves
	for _, p := range peers {
		if got := p.metrics.Counter("nocdn.cache.quarantined"); got != 0 {
			t.Fatalf("%s quarantined %v entries before anything rotted", p.ID, got)
		}
	}

	// Rot: the injector picks (peer, object) victims; adversary.FlipAtRest
	// flips the middle byte, which lies in the third of the four chunks.
	victims := make(map[string]int) // peer ID -> flipped entries
	fetchesBefore := make(map[string]int64)
	total := 0
	for _, p := range peers {
		fetchesBefore[p.ID] = p.OriginFetches()
		for i := 0; i < objects; i++ {
			path := fmt.Sprintf("/o/%02d", i)
			if d := inj.Decide(p.ID + path); d.Kind == faults.KindBitflip && adversary.FlipAtRest(p.cacheDir, published[path]) {
				victims[p.ID]++
				total++
			}
		}
	}
	if total == 0 {
		t.Fatalf("seed %d flipped no disk-resident entries; loosen the schedule", seed)
	}

	viewAll("rotten")
	served := 0
	for _, p := range peers {
		served += int(p.metrics.Counter("nocdn.cache.quarantined"))
	}
	if served == 0 || served > total {
		t.Fatalf("serves quarantined %d of %d victims; want some (a chunk over the flip was asked for) and no more than all", served, total)
	}
	scrubbed := 0
	for _, p := range peers {
		_, q := p.ScrubCache()
		scrubbed += q
	}
	if served+scrubbed != total {
		t.Fatalf("serves quarantined %d and the scrubber %d of %d victims", served, scrubbed, total)
	}
	t.Logf("seed %d: %d of %d (peer, object) entries flipped; %d caught by a Range serve, %d by the scrubber",
		seed, total, peerCount*objects, served, scrubbed)

	viewAll("healed") // refetches what the scrubber dropped
	for _, p := range peers {
		if got := p.OriginFetches() - fetchesBefore[p.ID]; got != int64(victims[p.ID]) {
			t.Errorf("%s refetched %d objects for %d victims", p.ID, got, victims[p.ID])
		}
		if _, q := p.ScrubCache(); q != 0 {
			t.Errorf("%s: a second scrub still quarantined %d entries", p.ID, q)
		}
	}
}
