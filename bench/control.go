package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

// submitter is one keyed peer of the control workload: the key a wrapper
// issued for it and the page that wrapper was for.
type submitter struct {
	id, keyID, page string
	secret          []byte
}

// controlRun is the state of workload D.
type controlRun struct {
	spec   controlSpec
	rec    *recorder
	origin *nocdn.Origin
	srv    *server
	httpc  *http.Client

	submitters []submitter
	acked      map[string]int64 // credits the origin acknowledged, by peer
	attempted  int64
	failed     int64
	failures   []string
}

func (c *controlRun) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// get fetches one wrapper over HTTP and returns its body.
func (c *controlRun) get(page, client string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.httpc.Get(c.srv.url + "/wrapper?page=" + page + "&client=" + url.QueryEscape(client))
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, dur, err
}

// post uploads one pre-signed batch and returns how many records the origin
// credited.
func (c *controlRun) post(body []byte) (credited int, status int, dur time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.httpc.Post(c.srv.url+"/usage/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur = time.Since(t0)
	if err != nil {
		return 0, resp.StatusCode, dur, err
	}
	var ack struct {
		Credited int `json:"credited"`
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(reply, &ack)
	}
	return ack.Credited, resp.StatusCode, dur, err
}

// sign builds n batches of spec.batchRecords signed records, round-robin
// over the submitters starting at batch number from.
func (c *controlRun) sign(from, n int) ([][]byte, []string, error) {
	bodies := make([][]byte, n)
	ids := make([]string, n)
	now := time.Now()
	for b := 0; b < n; b++ {
		s := c.submitters[(from+b)%len(c.submitters)]
		records := make([]nocdn.UsageRecord, c.spec.batchRecords)
		for r := range records {
			records[r] = nocdn.UsageRecord{
				Provider: provider, PeerID: s.id, KeyID: s.keyID, Page: s.page,
				Bytes: c.spec.recordBytes, Objects: 1,
				Nonce: fmt.Sprintf("d-%d-%d", from+b, r), IssuedAt: now,
			}
			records[r].Sign(s.secret)
		}
		body, err := nocdn.EncodeBatch(nocdn.NewRecordBatch(s.id, records))
		if err != nil {
			return nil, nil, err
		}
		bodies[b], ids[b] = body, s.id
	}
	return bodies, ids, nil
}

// runControlWorkload runs workload D: the origin alone, a large registered
// fleet, one client alternating settlement batches with wrapper reads, then
// an abandon and a cold recovery.
func runControlWorkload(cfg runConfig) (*result, error) {
	spec := controlSpecFor(cfg.scale)
	dir, err := os.MkdirTemp(cfg.dir, "nocdnbench-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult(cfg)
	res.Env = captureEnv(dir, cfg.seed, 1)
	c := &controlRun{spec: spec, acked: map[string]int64{}}
	if cfg.trace {
		c.rec = newRecorder(0)
	}

	// ---- set-up: origin with WAL, catalogue, fleet, warm pools, keys ----
	stateDir := filepath.Join(dir, "origin-state")
	originMetrics := hpop.NewMetrics()
	c.origin = nocdn.NewOrigin(provider, nocdn.WithHealthRegistry(hpop.NewHealthRegistry(hpop.BreakerConfig{})))
	c.origin.SetMetrics(originMetrics)
	if _, err := c.origin.AttachWAL(stateDir, nocdn.WALOptions{Fsync: nocdn.FsyncInterval}); err != nil {
		return nil, err
	}
	if _, _, err := publishCatalogue(c.origin, cfg.seed, spec.pages, spec.objects-1, spec.objectBytes, spec.objectBytes); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < spec.peers; i++ {
		c.origin.RegisterPeer(fmt.Sprintf("peer-%04d", i), fmt.Sprintf("http://peer-%04d.invalid", i), 10)
	}
	registerUs := float64(time.Since(t0)) / 1e3 / float64(spec.peers)

	var h http.Handler = c.origin.Handler()
	var dials atomic.Int64
	var rt http.RoundTripper = newTransport(&dials)
	if c.rec != nil {
		h = c.rec.middleware(h, -1)
		rt = &spanTransport{base: rt, rec: c.rec, peer: -1}
	}
	if c.srv, err = serve(h); err != nil {
		return nil, err
	}
	defer c.srv.close()
	c.httpc = &http.Client{Timeout: 30 * time.Second, Transport: rt}

	// Every (client, page) wrapper once: builds every pooled map and yields
	// one key per named peer. Every keyed peer submits.
	seen := map[string]bool{}
	for cl := 0; cl < spec.clients; cl++ {
		for p := 0; p < spec.pages; p++ {
			body, _, err := c.get(pageName(p), clientName(cl))
			if err != nil {
				return nil, fmt.Errorf("warm wrapper: %w", err)
			}
			var w nocdn.Wrapper
			if err := json.Unmarshal(body, &w); err != nil {
				return nil, err
			}
			for _, id := range sortedKeys(w.Keys) {
				if seen[id] {
					continue
				}
				seen[id] = true
				secret, err := hex.DecodeString(w.Keys[id].Secret)
				if err != nil {
					return nil, err
				}
				c.submitters = append(c.submitters, submitter{id: id, keyID: w.Keys[id].KeyID, page: w.Page, secret: secret})
			}
		}
	}
	rounds := int(float64(spec.roundsPerSecond) * cfg.seconds)
	bodies, ids, err := c.sign(0, min(spec.signChunk, rounds))
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(cfg.start).Seconds())
	fmt.Fprintf(cfg.log, "%s: set up in %.1fs (%d submitters), running %d rounds\n",
		cfg.workload, time.Since(cfg.start).Seconds(), len(c.submitters), rounds)

	// ---- timed rounds ----
	gen := newViewGen(cfg.seed, 1, spec.clients, spec.pages, false)
	before := originMetrics.Snapshot()
	wrapperBytes0, builds0 := c.origin.WrapperBytes(), c.origin.WrapperGenerations()
	var roundMs, postMs, getMs []float64
	var cpu float64
	var mallocs, allocBytes, gcPauseNs uint64
	var gcCycles uint32
	var ms0, ms1 runtime.MemStats
	var sampler *procSampler
	if cfg.trace {
		sampler = startProcSampler()
		c.rec.enable(true)
	}
	for done := 0; done < rounds; {
		if done > 0 {
			// Pre-sign the next chunk off the clock.
			if bodies, ids, err = c.sign(done, min(spec.signChunk, rounds-done)); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		for b, body := range bodies {
			r0 := time.Now()
			credited, status, dur, err := c.post(body)
			c.attempted++
			switch {
			case err != nil:
				c.fail("round %d: batch POST: %v", done+b, err)
			case status != http.StatusOK || credited != spec.batchRecords:
				c.fail("round %d: batch POST status %d, credited %d of %d", done+b, status, credited, spec.batchRecords)
			default:
				postMs = append(postMs, float64(dur)/1e6)
				c.acked[ids[b]] += int64(credited) * spec.recordBytes
			}
			for g := 0; g < spec.wrappersPerOp; g++ {
				cl, pg := gen.next()
				_, dur, err := c.get(pageName(pg), clientName(cl))
				c.attempted++
				if err != nil {
					c.fail("round %d: wrapper GET: %v", done+b, err)
					continue
				}
				getMs = append(getMs, float64(dur)/1e6)
			}
			roundMs = append(roundMs, float64(time.Since(r0))/1e6)
		}
		cpu += cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		gcCycles += ms1.NumGC - ms0.NumGC
		done += len(bodies)
	}
	if cfg.trace {
		c.rec.enable(false)
		sampler.finish()
	}
	after := originMetrics.Snapshot()
	originDelta := func(name string) float64 { return after[name] - before[name] }
	ops := float64(len(roundMs))
	records := ops * float64(spec.batchRecords)

	// ---- end-to-end metrics ----
	res.setPercentile("op_p50_ms", roundMs, 0.5, 1)
	res.setPercentile("op_p90_ms", roundMs, tailQ, 1)
	// Rounds per second of each third of the run, by the rounds' own clock
	// (the signing pauses are not in it); the median third is reported.
	var rates []float64
	for s := 0; s < satSlices; s++ {
		part := roundMs[len(roundMs)*s/satSlices : len(roundMs)*(s+1)/satSlices]
		var ms float64
		for _, v := range part {
			ms += v
		}
		if ms > 0 {
			rates = append(rates, float64(len(part))/(ms/1e3))
		}
	}
	res.set("ops_per_s", median(rates))
	if ops > 0 {
		res.set("cpu_ms_per_op", cpu*1e3/ops)
		res.set("allocs_per_op", float64(mallocs)/ops)
		res.set("alloc_kb_per_op", float64(allocBytes)/1024/ops)
		res.set("origin_kb_per_op", float64(c.origin.WrapperBytes()-wrapperBytes0)/1024/ops)
	}

	// ---- output checks on the live origin ----
	res.Attempted, res.Failed = c.attempted, c.failed
	for _, f := range c.failures {
		res.check("round", false, "%s", f)
	}
	flagged, scored := flaggedPeers(c.origin)
	res.check("audit flags nobody", flagged == 0, "%d peers flagged", flagged)
	suspended := 0
	for _, s := range c.submitters {
		if c.origin.AccountingFor(s.id).Suspended {
			suspended++
		}
	}
	res.check("nobody suspended", suspended == 0, "%d submitters suspended", suspended)
	builds := c.origin.WrapperGenerations() - builds0
	res.check("no wrapper pool build in the timed rounds", builds == 0, "%d builds", builds)
	liveMismatch := 0
	for _, s := range c.submitters {
		if c.origin.AccountingFor(s.id).CreditedBytes != c.acked[s.id] {
			liveMismatch++
		}
	}
	res.check("live ledger equals the acknowledged credits peer by peer", liveMismatch == 0, "%d submitters differ", liveMismatch)

	// ---- per-layer metrics (traced run) ----
	if cfg.trace {
		spans := c.rec.snapshot()
		var handlerMs, wrapHandlerUs []float64
		for _, s := range spans {
			if s.Kind != kindMW {
				continue
			}
			switch s.Route {
			case routeUsage:
				handlerMs = append(handlerMs, float64(s.End-s.Start)/1e6)
			case routeWrapper:
				wrapHandlerUs = append(wrapHandlerUs, float64(s.End-s.Start)/1e3)
			}
		}
		res.setPercentile("settle.handler_ms_p50", handlerMs, 0.5, 1)
		res.setPercentile("origin.wrapper_handler_us_p50", wrapHandlerUs, 0.5, 1)
		res.setPercentile("settle.batch_p50_ms", postMs, 0.5, 1)
		res.setPercentile("origin.wrapper_get_ms_p50", getMs, 0.5, 1)
		var postS float64
		for _, v := range postMs {
			postS += v / 1e3
		}
		if postS > 0 {
			res.set("settle.records_per_s", float64(len(postMs)*spec.batchRecords)/postS)
		}
		if records > 0 {
			res.set("settle.cpu_us_per_record", cpu*1e6/records)
		}
		res.set("settle.records_rejected", originDelta("nocdn.origin.records_rejected"))
		res.set("settle.batches_replayed", originDelta("nocdn.origin.batches_replayed"))
		res.set("origin.register_us_per_peer", registerUs)
		res.set("origin.pool_builds", float64(builds))
		if ops > 0 {
			res.set("origin.wrapper_kb_per_view", float64(c.origin.WrapperBytes()-wrapperBytes0)/1024/(ops*float64(spec.wrappersPerOp)))
			res.set("http.conns_opened_per_view", float64(dials.Load())/(ops*float64(spec.wrappersPerOp)))
		}
		res.set("audit.peers_scored", float64(scored))
		res.set("audit.flagged", float64(flagged))
		setWAL(res, originDelta)
		res.set("proc.gc_pause_ms_total", float64(gcPauseNs)/1e6)
		res.set("proc.gc_cycles", float64(gcCycles))
		res.set("proc.heap_mb_peak", float64(sampler.heapPeak)/(1<<20))
		res.set("proc.goroutines_peak", float64(sampler.goroutines))
		if c.attempted > 0 {
			res.set("run.failed_ratio", float64(c.failed)/float64(c.attempted))
		}
		layerPass(res, c.origin, pageName(0), clientName(0), nil)
		if cfg.traceOut != "" {
			err := writeTrace(cfg.traceOut, spans, buildTree(spans))
			res.check("trace file written", err == nil, "%v", err)
		}
	}

	// ---- abandon (no Shutdown), recover cold, replay an acknowledged batch ----
	subIDs := make([]string, len(c.submitters))
	for i, s := range c.submitters {
		subIDs[i] = s.id
	}
	o2 := recoverOrigin(res, stateDir, c.origin, subIDs, int64(records), cfg.trace)
	srv2, err := serve(o2.Handler())
	if err != nil {
		return nil, err
	}
	defer srv2.close()
	c.srv = srv2
	_, status, _, err := c.post(bodies[len(bodies)-1])
	res.check("re-posting an acknowledged batch to the recovered origin returns 400",
		err == nil && status == http.StatusBadRequest, "status %d, err %v", status, err)
	c.httpc.CloseIdleConnections()

	res.set("rss_peak_mb", rssPeakMB())
	res.finish()
	return res, nil
}
