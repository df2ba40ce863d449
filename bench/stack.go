package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

const provider = "bench.example"

// stack is the real NoCDN chain in one process, the way internal/cdntest
// boots it: a durable origin, numPeers peers with disk tier, record spool
// and telemetry, all behind loopback HTTP listeners. The program tracer is
// nil and hpop.Metrics is on, as in the daemons.
type stack struct {
	spec pageSpec
	dir  string
	rec  *recorder // nil in an untraced run

	origin        *nocdn.Origin
	originMetrics *hpop.Metrics
	originSrv     *server
	stateDir      string
	health        *hpop.HealthRegistry

	peers       []*nocdn.Peer
	peerMetrics []*hpop.Metrics
	peerSrvs    []*server

	// content is what was published, by object path; pages[i] lists page
	// i's object paths, container first.
	content map[string][]byte
	pages   [][]string

	bg background
}

// bootStack builds the origin and the peers under dir.
func bootStack(spec pageSpec, dir string, rec *recorder) (*stack, error) {
	st := &stack{spec: spec, dir: dir, rec: rec, health: hpop.NewHealthRegistry(hpop.BreakerConfig{})}
	opts := []nocdn.OriginOption{nocdn.WithHealthRegistry(st.health)}
	if spec.chunkPeers > 1 {
		opts = append(opts, nocdn.WithChunking(spec.chunkPeers, spec.chunkThreshold))
	}
	st.origin = nocdn.NewOrigin(provider, opts...)
	st.originMetrics = hpop.NewMetrics()
	st.origin.SetMetrics(st.originMetrics)
	st.stateDir = filepath.Join(dir, "origin-state")
	if _, err := st.origin.AttachWAL(st.stateDir, nocdn.WALOptions{Fsync: nocdn.FsyncInterval}); err != nil {
		return nil, fmt.Errorf("attach WAL: %w", err)
	}
	var err error
	if st.originSrv, err = serve(st.wrap(st.origin.Handler(), -1)); err != nil {
		return nil, err
	}
	for i := 0; i < numPeers; i++ {
		p := nocdn.NewPeer(peerName(i), spec.memBytes)
		m := hpop.NewMetrics()
		p.SetMetrics(m)
		p.EnableTelemetry(0)
		pdir := filepath.Join(dir, p.ID)
		if err := p.AttachDiskCache(pdir, spec.diskBytes, spec.segBytes); err != nil {
			return nil, fmt.Errorf("%s disk tier: %w", p.ID, err)
		}
		if err := p.AttachRecordSpool(pdir); err != nil {
			return nil, fmt.Errorf("%s record spool: %w", p.ID, err)
		}
		if rec != nil {
			// Only a traced run replaces the peer's own upstream client; the
			// untraced run keeps the product's transport untouched.
			var dials atomic.Int64
			p.SetHTTPClient(&http.Client{
				Timeout:   nocdn.DefaultPeerFetchTimeout,
				Transport: &spanTransport{base: newTransport(&dials), rec: rec, peer: i},
			})
		}
		p.SignUp(provider, st.originSrv.url)
		srv, err := serve(st.wrap(p.Handler(), i))
		if err != nil {
			return nil, err
		}
		st.peers = append(st.peers, p)
		st.peerMetrics = append(st.peerMetrics, m)
		st.peerSrvs = append(st.peerSrvs, srv)
		st.origin.RegisterPeer(p.ID, srv.url, float64(10+10*i))
	}
	return st, nil
}

func (st *stack) wrap(h http.Handler, peer int) http.Handler {
	if st.rec == nil {
		return h
	}
	return st.rec.middleware(h, peer)
}

// publishCatalogue publishes pages of one container plus embedded objects,
// all seeded pseudo-random bytes. It returns what was published by object
// path, and each page's object paths, container first.
func publishCatalogue(o *nocdn.Origin, seed int64, pages, embedded, containerBytes, objectBytes int) (map[string][]byte, [][]string, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	content := map[string][]byte{}
	var paths [][]string
	add := func(path string, n int, contentType string) string {
		content[path] = fillBytes(rng, n)
		o.AddObjectWithType(path, content[path], contentType)
		return path
	}
	for p := 0; p < pages; p++ {
		name := pageName(p)
		page := nocdn.Page{Name: name, Container: add("/"+name+"/index.html", containerBytes, "text/html")}
		for e := 0; e < embedded; e++ {
			page.Embedded = append(page.Embedded, add(fmt.Sprintf("/%s/o%02d.bin", name, e), objectBytes, "application/octet-stream"))
		}
		if err := o.AddPage(page); err != nil {
			return nil, nil, err
		}
		paths = append(paths, append([]string{page.Container}, page.Embedded...))
	}
	return content, paths, nil
}

// flaggedPeers counts the peers the settlement auditor has scored and how
// many of them it flagged.
func flaggedPeers(o *nocdn.Origin) (flagged, scored int) {
	snap := o.Audit().Snapshot()
	for _, pa := range snap.Peers {
		if pa.Flagged {
			flagged++
		}
	}
	return flagged, len(snap.Peers)
}

// peerName is chosen, not arbitrary. The assignment ring hashes peer IDs
// with FNV-1a, and with four similar IDs the arcs come out uneven: under
// "peer-%d" one peer is handed ~40% of the others' bytes per view, its usage
// records then sit more than two deviations below the population mean, and
// the settlement auditor flags and ejects an honest peer a hundred records
// into the warm-up. "home-%d" gives the most even ring of the schemes tried
// (thinnest peer at 0.68 of the fattest on A and C), which keeps every
// peer's claims well inside the auditor's threshold.
func peerName(i int) string { return fmt.Sprintf("home-%d", i) }

func pageName(i int) string   { return fmt.Sprintf("p%03d", i) }
func clientName(i int) string { return fmt.Sprintf("client-%02d", i) }

// prefill fetches every object through every peer, so every peer holds the
// whole catalogue (in memory on A, in the segment store on B) before the
// clock starts.
func (st *stack) prefill() error {
	errs := make([]error, len(st.peers))
	var wg sync.WaitGroup
	for i := range st.peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &http.Client{Timeout: 30 * time.Second}
			defer c.CloseIdleConnections()
			for _, paths := range st.pages {
				for _, path := range paths {
					resp, err := c.Get(st.peerSrvs[i].url + "/proxy/" + provider + path)
					if err != nil {
						errs[i] = err
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errs[i] = fmt.Errorf("prefill %s via peer %d: status %d, %v", path, i, resp.StatusCode, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildPools pulls the wrapper of every (client, page) once, so every
// pooled wrapper map the timed phases can hit is built before they start.
func (st *stack) buildPools() error {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	for cl := 0; cl < st.spec.clients; cl++ {
		l := &nocdn.Loader{OriginURL: st.originSrv.url, ClientID: clientName(cl), HTTPClient: c}
		for p := range st.pages {
			if _, err := l.FetchWrapper(pageName(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// background is the work the daemons would do on tickers, driven by the
// benchmark: Peer.Flush every flushEvery ms and Peer.TelemetryOnce every
// telemetryEvery ms, one goroutine per peer. It keeps a stopwatch on each
// call (the sw layer probe).
type background struct {
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu            sync.Mutex
	flushMs       []float64 // non-empty flushes only
	flushRecords  []float64
	telemetryMs   []float64 // acknowledged reports only
	pendingMax    int
	flushErrors   int64
	telemetryErrs int64
}

func (st *stack) startBackground() {
	st.bg.stop = make(chan struct{})
	for i := range st.peers {
		st.bg.wg.Add(1)
		go func(i int) {
			defer st.bg.wg.Done()
			flush := time.NewTicker(flushEvery * time.Millisecond)
			telemetry := time.NewTicker(telemetryEvery * time.Millisecond)
			defer flush.Stop()
			defer telemetry.Stop()
			for {
				select {
				case <-st.bg.stop:
					return
				case <-flush.C:
					st.flushOnce(i)
				case <-telemetry.C:
					st.telemetryOnce(i)
				}
			}
		}(i)
	}
}

// stopBackground stops the tickers and waits for them; calling it again is
// a no-op.
func (st *stack) stopBackground() {
	st.bg.stopOnce.Do(func() { close(st.bg.stop) })
	st.bg.wg.Wait()
}

// stopwatch times fn, and in a traced run records it as an sw span that the
// peer's uploads parent under.
func (st *stack) stopwatch(peer int, rt route, fn func()) float64 {
	var s span
	traced := st.rec.on()
	if traced {
		s = st.rec.begin(kindSW, rt, 0, peer)
		st.rec.calling[peer].Store(s.ID)
	}
	t0 := time.Now()
	fn()
	ms := float64(time.Since(t0)) / 1e6
	if traced {
		st.rec.calling[peer].Store(0)
		st.rec.end(&s)
	}
	return ms
}

func (st *stack) flushOnce(i int) {
	pending := st.peers[i].PendingRecords()
	var n int
	var err error
	ms := st.stopwatch(i, routeFlush, func() { n, err = st.peers[i].Flush(st.originSrv.url) })
	bg := &st.bg
	bg.mu.Lock()
	defer bg.mu.Unlock()
	if pending > bg.pendingMax {
		bg.pendingMax = pending
	}
	if err != nil {
		bg.flushErrors++
		return
	}
	if n > 0 {
		bg.flushMs = append(bg.flushMs, ms)
		bg.flushRecords = append(bg.flushRecords, float64(n))
	}
}

func (st *stack) telemetryOnce(i int) {
	var acked bool
	var err error
	ms := st.stopwatch(i, routeTelemetryOnce, func() {
		acked, err = st.peers[i].TelemetryOnce(context.Background(), st.originSrv.url)
	})
	bg := &st.bg
	bg.mu.Lock()
	defer bg.mu.Unlock()
	if err != nil {
		bg.telemetryErrs++
		return
	}
	if acked {
		bg.telemetryMs = append(bg.telemetryMs, ms)
	}
}

// drain flushes every peer until nothing is pending.
func (st *stack) drain() error {
	for i, p := range st.peers {
		for tries := 0; p.PendingRecords() > 0; tries++ {
			if tries == 5 {
				return fmt.Errorf("%s still has %d pending records after %d flushes", p.ID, p.PendingRecords(), tries)
			}
			st.flushOnce(i)
		}
	}
	return nil
}

func (st *stack) close() {
	for _, s := range st.peerSrvs {
		s.close()
	}
	if st.originSrv != nil {
		st.originSrv.close()
	}
	for _, p := range st.peers {
		p.CloseRecordSpool()
		p.CloseDiskCache()
	}
	os.RemoveAll(st.dir)
}

// counters is a point-in-time reading of every public counter the per-layer
// table takes deltas of.
type counters struct {
	wrapperBytes, originBytes, poolBuilds int64
	memHits, diskHits, misses             int64
	shed, dropped                         int64
	origin                                map[string]float64
	peers                                 map[string]float64 // summed over peers
}

func (st *stack) readCounters() counters {
	c := counters{
		wrapperBytes: st.origin.WrapperBytes(),
		originBytes:  st.origin.OriginBytes(),
		poolBuilds:   st.origin.WrapperGenerations(),
		origin:       st.originMetrics.Snapshot(),
		peers:        map[string]float64{},
	}
	for i, p := range st.peers {
		mem, disk, miss := p.TierStats()
		c.memHits += mem
		c.diskHits += disk
		c.misses += miss
		c.shed += p.ShedRequests()
		c.dropped += p.DroppedRecords()
		for k, v := range st.peerMetrics[i].Snapshot() {
			c.peers[k] += v
		}
	}
	return c
}
