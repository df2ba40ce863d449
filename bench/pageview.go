package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	scale    string
	seed     int64
	seconds  float64
	trace    bool
	dir      string    // state goes under a fresh temp dir created here
	traceOut string    // where a traced run writes its spans ("" = nowhere)
	start    time.Time // what setup_s is measured from (process start in main)
	log      io.Writer
}

// tally is what the load clients add up over the whole run, warm-up
// included: the exactly-once check compares it to the origin's ledger.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	fallback  int64
	degraded  int64
	records   int64
	peerBytes map[string]int64
	failures  []string // first few, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop load goroutine: its own keep-alive transport
// and one Loader per client identity. Loader.Concurrency stays at the
// product default — it is the system under test, not the generator.
type client struct {
	st      *stack
	tally   *tally
	loaders []*nocdn.Loader
	httpc   *http.Client
}

func (st *stack) newClient(t *tally, dials *atomic.Int64, loaderMetrics *hpop.Metrics) *client {
	var rt http.RoundTripper = newTransport(dials)
	if st.rec != nil {
		rt = &spanTransport{base: rt, rec: st.rec, peer: -1}
	}
	c := &client{st: st, tally: t, httpc: &http.Client{Timeout: nocdn.DefaultFetchTimeout, Transport: rt}}
	for i := 0; i < st.spec.clients; i++ {
		c.loaders = append(c.loaders, &nocdn.Loader{
			OriginURL:  st.originSrv.url,
			ClientID:   clientName(i),
			HTTPClient: c.httpc,
			Metrics:    loaderMetrics,
			Health:     st.health,
		})
	}
	return c
}

// view loads one page, then checks and accounts for it outside the
// stopwatch. It returns the view's wall time and payload size; ok is false
// for a failed, degraded or fallen-back view.
func (c *client) view(clientID, page int) (dur time.Duration, payload int64, ok bool) {
	ctx := context.Background()
	rec := c.st.rec
	var vs span
	traced := rec.on()
	if traced {
		vs = rec.begin(kindView, routeNone, 0, -1)
		ctx = withView(ctx, vs.ID)
	}
	t0 := time.Now()
	res, err := c.loaders[clientID].LoadPageContext(ctx, pageName(page))
	dur = time.Since(t0)
	if traced {
		rec.end(&vs)
	}

	// Every body must be the published bytes (a byte comparison is at least
	// as strong as re-hashing and cheaper).
	problem := ""
	if err != nil {
		problem = err.Error()
	} else {
		paths := c.st.pages[page]
		if len(res.Body) != len(paths) {
			problem = fmt.Sprintf("%d of %d objects assembled", len(res.Body), len(paths))
		}
		for _, path := range paths {
			if problem == "" && !bytes.Equal(res.Body[path], c.st.content[path]) {
				problem = "object " + path + " differs from the published bytes"
			}
		}
		if problem == "" && (len(res.FallbackObjects) > 0 || len(res.Degraded) > 0) {
			problem = fmt.Sprintf("%d fallback, %d degraded objects", len(res.FallbackObjects), len(res.Degraded))
		}
		if problem == "" && res.RecordsDelivered != len(res.PeerBytes) {
			problem = fmt.Sprintf("%d of %d usage records delivered", res.RecordsDelivered, len(res.PeerBytes))
		}
	}

	t := c.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if res != nil {
		payload = res.TotalBytes()
		t.fallback += int64(len(res.FallbackObjects))
		t.degraded += int64(len(res.Degraded))
		t.records += int64(res.RecordsDelivered)
		for id, n := range res.PeerBytes {
			t.peerBytes[id] += n
		}
	}
	if problem != "" {
		t.fail("view %s as %s: %s", pageName(page), clientName(clientID), problem)
		return dur, payload, false
	}
	return dur, payload, true
}

// phaseGrace is how long past its window a phase may run to collect the
// samples its percentiles need, on a machine slower than the windows assume.
const phaseGrace = 10 * time.Second

// phase is one timed window's raw measurements.
type phase struct {
	startNs, endNs int64 // recorder clock, traced runs only
	wall           float64
	views          int64
	payload        int64
	latMs          []float64 // per-view wall times, successful views only
	doneAt         []float64 // seconds since phase start at which each view completed
	cpu            float64
	mallocs        uint64
	allocBytes     uint64
	gcPauseNs      uint64
	gcCycles       uint32
}

// runPhase drives n closed-loop clients for at least window, and for as long
// after that as it takes to collect minViews views (it gives up phaseGrace
// after the window).
// Each client finishes the view it is on, so every view whose cost landed in
// the CPU and allocation deltas is also counted.
func (st *stack) runPhase(clients []*client, gens []*viewGen, window time.Duration, minViews int) phase {
	var ph phase
	var mu sync.Mutex
	var ms0, ms1 runtime.MemStats
	var views atomic.Int64
	if st.rec != nil {
		ph.startNs = st.rec.now()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, g *viewGen) {
			defer wg.Done()
			for {
				elapsed := time.Since(t0)
				if elapsed >= window+phaseGrace || (elapsed >= window && views.Load() >= int64(minViews)) {
					return
				}
				cl, pg := g.next()
				dur, payload, ok := c.view(cl, pg)
				views.Add(1)
				mu.Lock()
				ph.payload += payload
				if ok {
					ph.latMs = append(ph.latMs, float64(dur)/1e6)
				}
				ph.doneAt = append(ph.doneAt, time.Since(t0).Seconds())
				mu.Unlock()
			}
		}(c, gens[i])
	}
	wg.Wait()
	ph.views = views.Load()
	ph.wall = time.Since(t0).Seconds()
	ph.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if st.rec != nil {
		ph.endNs = st.rec.now()
	}
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	return ph
}

// sliceRates cuts the phase into n equal slices of its nominal window and
// returns the completed views per second of each.
func (ph *phase) sliceRates(window float64, n int) []float64 {
	counts := make([]float64, n)
	width := window / float64(n)
	for _, at := range ph.doneAt {
		if i := int(at / width); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width
	}
	return counts
}

// procSampler watches heap and goroutine peaks without stopping the world.
type procSampler struct {
	stop       chan struct{}
	done       chan struct{}
	heapPeak   uint64
	goroutines int
}

func startProcSampler() *procSampler {
	s := &procSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.heapPeak {
				s.heapPeak = v.Uint64()
			}
			if n := runtime.NumGoroutine(); n > s.goroutines {
				s.goroutines = n
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *procSampler) finish() {
	close(s.stop)
	<-s.done
}

// runPageWorkload runs workloads A–C: boot, publish, warm, a one-client
// latency phase, a saturation phase, then drain, check, and recover.
func runPageWorkload(cfg runConfig) (*result, error) {
	spec, err := pageSpecFor(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "nocdnbench-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(numPeers)
	}
	st, err := bootStack(spec, dir, rec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer st.close()
	satClients := min(runtime.NumCPU(), maxSatClients)
	res := newResult(cfg)
	res.Env = captureEnv(dir, cfg.seed, satClients)

	// ---- set-up: publish, start the background tickers, warm ----
	if st.content, st.pages, err = publishCatalogue(st.origin, cfg.seed, spec.pages, spec.objects, spec.containerBytes, spec.objectBytes); err != nil {
		return nil, err
	}
	st.startBackground()
	defer st.stopBackground()
	if spec.prefill {
		if err := st.prefill(); err != nil {
			return nil, err
		}
		if err := st.buildPools(); err != nil {
			return nil, err
		}
	}
	tl := &tally{peerBytes: map[string]int64{}}
	var dials atomic.Int64
	loaderMetrics := hpop.NewMetrics()
	clients := make([]*client, satClients)
	for i := range clients {
		clients[i] = st.newClient(tl, &dials, loaderMetrics)
	}
	gens := func(stream int) []*viewGen {
		out := make([]*viewGen, satClients)
		for i := range out {
			out[i] = newViewGen(cfg.seed, stream*16+i, spec.clients, len(st.pages), spec.zipf)
		}
		return out
	}
	warmGens := gens(0)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, g *viewGen, n int) {
			defer wg.Done()
			for ; n > 0; n-- {
				c.view(g.next())
			}
		}(c, warmGens[i], spec.warmViews/satClients)
	}
	wg.Wait()
	res.set("setup_s", time.Since(cfg.start).Seconds())
	fmt.Fprintf(cfg.log, "%s: set up in %.1fs, measuring %.0fs\n", cfg.workload, time.Since(cfg.start).Seconds(), cfg.seconds)

	// ---- timed phases ----
	var sampler *procSampler
	if cfg.trace {
		sampler = startProcSampler()
	}
	latWindow := time.Duration(cfg.seconds * latShare * float64(time.Second))
	satWindow := time.Duration(cfg.seconds * (1 - latShare) * float64(time.Second))
	before := st.readCounters()
	dials0 := dials.Load()
	var baseline, lat phase
	if cfg.trace {
		// A traced run first takes an untraced baseline on the same warmed
		// stack; the difference is the price of the benchmark's own spans.
		baseline = st.runPhase(clients[:1], gens(1), latWindow/2, samplesNeeded(0.5))
		rec.enable(true)
		lat = st.runPhase(clients[:1], gens(2), latWindow/2, samplesNeeded(tailQ))
	} else {
		lat = st.runPhase(clients[:1], gens(2), latWindow, samplesNeeded(tailQ))
	}
	sat := st.runPhase(clients, gens(3), satWindow, 0)
	after := st.readCounters()
	if cfg.trace {
		rec.enable(false)
		sampler.finish()
	}
	timedViews := baseline.views + lat.views + sat.views
	timedPayload := baseline.payload + lat.payload + sat.payload

	// ---- end-to-end metrics ----
	res.setPercentile("op_p50_ms", lat.latMs, 0.5, 1)
	res.setPercentile("op_p90_ms", lat.latMs, tailQ, 1)
	res.set("ops_per_s", median(sat.sliceRates(satWindow.Seconds(), satSlices)))
	if sat.views > 0 {
		res.set("cpu_ms_per_op", sat.cpu*1e3/float64(sat.views))
		res.set("allocs_per_op", float64(sat.mallocs)/float64(sat.views))
		res.set("alloc_kb_per_op", float64(sat.allocBytes)/1024/float64(sat.views))
	}
	originBytes := after.originBytes - before.originBytes
	wrapperBytes := after.wrapperBytes - before.wrapperBytes
	if timedViews > 0 {
		res.set("origin_kb_per_op", float64(originBytes+wrapperBytes)/1024/float64(timedViews))
	}

	// ---- drain, then the output checks ----
	st.stopBackground()
	drainErr := st.drain()
	res.check("final flush drains every peer", drainErr == nil, "%v", drainErr)

	res.Attempted = tl.attempted
	res.Failed = tl.failed
	for _, f := range tl.failures {
		res.check("view", false, "%s", f)
	}
	final := st.readCounters()
	opsFailed := final.shed + final.dropped + st.bg.flushErrors + st.bg.telemetryErrs
	res.Attempted += opsFailed
	res.Failed += opsFailed
	res.check("no shed request, dropped record, failed flush or failed telemetry upload", opsFailed == 0,
		"%d shed, %d dropped, %d flush errors, %d telemetry errors", final.shed, final.dropped, st.bg.flushErrors, st.bg.telemetryErrs)

	// Exactly-once settlement: what the ledger credited each peer is what
	// the views were served by that peer, to the byte.
	var served int64
	for _, p := range st.peers {
		acct := st.origin.AccountingFor(p.ID)
		served += tl.peerBytes[p.ID]
		res.check("credited == served for "+p.ID, acct.CreditedBytes == tl.peerBytes[p.ID],
			"ledger credited %d bytes, views were served %d", acct.CreditedBytes, tl.peerBytes[p.ID])
		res.check(p.ID+" not suspended", !acct.Suspended, "suspended by anomaly detection")
	}
	res.check("some bytes were served by peers", served > 0, "served %d", served)
	flagged, scored := flaggedPeers(st.origin)
	res.check("audit flags nobody", flagged == 0, "%d peers flagged", flagged)
	if spec.prefill {
		res.check("no wrapper pool build in the timed phases", after.poolBuilds == before.poolBuilds,
			"%d builds", after.poolBuilds-before.poolBuilds)
		res.check("no origin content byte in the timed phases", originBytes == 0, "%d bytes", originBytes)
	}

	// ---- per-layer metrics (traced run) ----
	if cfg.trace {
		st.layerMetrics(res, cfg, layerInputs{
			baseline: baseline, lat: lat, sat: sat, before: before, after: after,
			views: timedViews, payload: timedPayload, dials: dials.Load() - dials0,
			tally: tl, sampler: sampler, flagged: flagged, scored: scored,
		})
	}

	// ---- abandon the origin (no Shutdown) and recover it cold ----
	recoverOrigin(res, st.stateDir, st.origin, peerIDs(st.peers), tl.records, cfg.trace)

	res.set("rss_peak_mb", rssPeakMB())
	res.finish()
	return res, nil
}

func peerIDs(peers []*nocdn.Peer) []string {
	ids := make([]string, len(peers))
	for i, p := range peers {
		ids[i] = p.ID
	}
	return ids
}

// recoverBoots is how many times a traced run cold-boots the abandoned
// state directory; the median boot is reported. An untraced run boots once,
// for the checks.
const recoverBoots = 3

// recoverOrigin abandons live (no Shutdown), cold-boots fresh origins on
// its state directory, and checks that the recovered ledger equals the
// live one for every peer in ids. records is how many usage records live
// credited. It returns the last recovered origin.
func recoverOrigin(res *result, stateDir string, live *nocdn.Origin, ids []string, records int64, traced bool) *nocdn.Origin {
	walBytes := dirBytes(stateDir)
	var boots []float64
	var o2 *nocdn.Origin
	var stats nocdn.RecoveryStats
	n := 1
	if traced {
		n = recoverBoots
	}
	for i := 0; i < n; i++ {
		o2 = nocdn.NewOrigin(provider)
		t0 := time.Now()
		var err error
		stats, err = o2.AttachWAL(stateDir, nocdn.WALOptions{Fsync: nocdn.FsyncInterval})
		boots = append(boots, time.Since(t0).Seconds())
		if err != nil {
			res.check("cold AttachWAL on the abandoned state directory", false, "%v", err)
			return o2
		}
	}
	res.check("recovery truncated no torn tail", !stats.TruncatedTail, "TruncatedTail is set")
	mismatched := 0
	for _, id := range ids {
		if o2.AccountingFor(id).CreditedBytes != live.AccountingFor(id).CreditedBytes {
			mismatched++
		}
	}
	res.check("recovered ledger equals the live ledger peer by peer", mismatched == 0, "%d of %d peers differ", mismatched, len(ids))
	if traced {
		secs := median(boots)
		res.set("wal.recover_s", secs)
		res.set("wal.replayed_records", float64(stats.RecordsReplayed))
		if secs > 0 {
			res.set("wal.replay_records_per_s", float64(stats.RecordsReplayed)/secs)
		}
		t0 := time.Now()
		err := o2.SnapshotNow()
		res.set("wal.snapshot_ms", float64(time.Since(t0))/1e6)
		res.check("SnapshotNow on the recovered origin", err == nil, "%v", err)
		if records > 0 {
			res.set("wal.bytes_per_record", float64(walBytes)/float64(records))
		}
	}
	return o2
}

// traceFile is where a traced run of a workload writes its spans.
func traceFile(dir, workload string) string {
	return filepath.Join(dir, "trace-"+workload+".json")
}
