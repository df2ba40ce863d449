package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hpop/internal/nocdn"
)

// layerInputs is what the page-view runner hands to layerMetrics.
type layerInputs struct {
	baseline, lat, sat phase
	before, after      counters
	views              int64 // views in the timed phases, baseline included
	payload            int64
	dials              int64
	tally              *tally
	sampler            *procSampler
	flagged, scored    int
}

func within(s span, ph phase) bool { return s.Start >= ph.startNs && s.Start < ph.endNs }

// layerMetrics turns the traced run's spans, stopwatches and counter deltas
// into the per-layer table of a page-view workload. Latencies come from the
// one-client phase (nothing contends, so they are the layer's own time);
// counts and busy shares come from both traced phases.
func (st *stack) layerMetrics(res *result, cfg runConfig, in layerInputs) {
	spans := st.rec.snapshot()
	tree := buildTree(spans)
	traced := float64(in.lat.views + in.sat.views)
	views := float64(in.views)

	var selfMs, httpUs, wrapHandlerUs, wrapGetMs, contentUs, hitUs, missMs, recordUs, settleMs, batchMs []float64
	var requests, contentReqs, reports, batchNs, busyNs int64
	var crit [numLayers]int64
	var critViews, critNs int64
	for i, s := range spans {
		inLat, inSat := within(s, in.lat), within(s, in.sat)
		if !inLat && !inSat {
			continue
		}
		dur := s.End - s.Start
		switch {
		case s.Kind == kindView && inLat:
			selfMs = append(selfMs, float64(tree.selfTime(i))/1e6)
			tree.critical(i, s.Start, s.End, &crit)
			critViews++
			critNs += dur
		case s.Kind == kindRT && s.Peer < 0:
			requests++
			if inLat && s.Route == routeProxy {
				httpUs = append(httpUs, float64(tree.selfTime(i))/1e3)
			}
			if inLat && s.Route == routeWrapper {
				wrapGetMs = append(wrapGetMs, float64(dur)/1e6)
			}
		case s.Kind == kindRT && s.Route == routeUsage:
			batchMs = append(batchMs, float64(dur)/1e6)
			batchNs += dur
		case s.Kind == kindMW:
			switch s.Route {
			case routeWrapper:
				if inLat {
					wrapHandlerUs = append(wrapHandlerUs, float64(dur)/1e3)
				}
			case routeContent:
				contentReqs++
				contentUs = append(contentUs, float64(dur)/1e3)
			case routeProxy:
				if inSat {
					busyNs += dur
				}
				if inLat && s.Hit {
					hitUs = append(hitUs, float64(dur)/1e3)
				} else if inLat {
					missMs = append(missMs, float64(dur)/1e6)
				}
			case routeRecord:
				if inLat {
					recordUs = append(recordUs, float64(dur)/1e3)
				}
			case routeUsage:
				settleMs = append(settleMs, float64(dur)/1e6)
			case routeTelemetry:
				if s.Status == 200 {
					reports++
				}
			}
		}
	}

	res.setPercentile("loader.self_ms_p50", selfMs, 0.5, 1)
	res.setPercentile("loader.view_p99_ms", in.lat.latMs, 0.99, 1)
	res.setPercentile("http.overhead_us_p50", httpUs, 0.5, 1)
	res.setPercentile("origin.wrapper_handler_us_p50", wrapHandlerUs, 0.5, 1)
	res.setPercentile("origin.wrapper_get_ms_p50", wrapGetMs, 0.5, 1)
	res.setPercentile("origin.content_handler_us_p50", contentUs, 0.5, 1)
	res.setPercentile("peer.serve_hit_us_p50", hitUs, 0.5, 1)
	res.setPercentile("peer.serve_miss_ms_p50", missMs, 0.5, 1)
	res.setPercentile("peer.record_handler_us_p50", recordUs, 0.5, 1)
	res.setPercentile("settle.handler_ms_p50", settleMs, 0.5, 1)
	res.setPercentile("settle.batch_p50_ms", batchMs, 0.5, 1)
	res.setPercentile("peer.flush_ms_p50", st.bg.flushMs, 0.5, 1)
	res.setPercentile("fleet.telemetry_ms_p50", st.bg.telemetryMs, 0.5, 1)

	delta := func(after, before map[string]float64, name string) float64 { return after[name] - before[name] }
	peerDelta := func(name string) float64 { return delta(in.after.peers, in.before.peers, name) }
	originDelta := func(name string) float64 { return delta(in.after.origin, in.before.origin, name) }

	if traced > 0 {
		res.set("loader.requests_per_view", float64(requests)/traced)
		res.set("origin.content_requests_per_view", float64(contentReqs)/traced)
	}
	if in.tally.attempted > 0 {
		res.set("loader.records_per_view", float64(in.tally.records)/float64(in.tally.attempted))
	}
	res.set("loader.fallback_objects", float64(in.tally.fallback))
	res.set("loader.degraded_objects", float64(in.tally.degraded))
	originBytes := float64(in.after.originBytes - in.before.originBytes)
	if views > 0 {
		res.set("http.conns_opened_per_view", float64(in.dials)/views)
		res.set("origin.wrapper_kb_per_view", float64(in.after.wrapperBytes-in.before.wrapperBytes)/1024/views)
	}
	res.set("origin.pool_builds", float64(in.after.poolBuilds-in.before.poolBuilds))
	if in.payload > 0 {
		res.set("origin.offload_ratio", 1-originBytes/float64(in.payload))
	}
	res.set("origin.content_mb", originBytes/(1<<20))

	mem := float64(in.after.memHits - in.before.memHits)
	disk := float64(in.after.diskHits - in.before.diskHits)
	miss := float64(in.after.misses - in.before.misses)
	if total := mem + disk + miss; total > 0 {
		res.set("peer.hit_ratio_mem", mem/total)
		res.set("peer.hit_ratio_disk", disk/total)
		res.set("peer.miss_ratio", miss/total)
	}
	if in.sat.wall > 0 {
		res.set("peer.serve_busy_share", float64(busyNs)/1e9/(in.sat.wall*float64(runtime.GOMAXPROCS(0))))
	}
	res.set("peer.shed_requests", float64(in.after.shed-in.before.shed))
	res.set("segstore.spills", peerDelta("nocdn.cache.spills"))
	res.set("segstore.spill_mb", peerDelta("nocdn.cache.spill_bytes")/(1<<20))
	res.set("segstore.promotions", peerDelta("nocdn.cache.promotions"))
	res.set("segstore.segments_rotated", peerDelta("nocdn.cache.segments_rotated"))
	res.set("segstore.segments_reclaimed", peerDelta("nocdn.cache.segments_reclaimed"))
	res.set("segstore.quarantined", peerDelta("nocdn.cache.quarantined"))
	var entries int
	var diskBytes int64
	for _, p := range st.peers {
		e, b, _ := p.DiskCacheStats()
		entries += e
		diskBytes += b
	}
	res.set("segstore.entries", float64(entries))
	res.set("segstore.disk_mb", float64(diskBytes)/(1<<20))

	res.set("peer.flush_records_mean", mean(st.bg.flushRecords))
	res.set("peer.pending_records_max", float64(st.bg.pendingMax))
	res.set("peer.records_dropped", float64(in.after.dropped-in.before.dropped))
	res.set("peer.spool_appends", peerDelta("nocdn.peer.spool_appends"))

	settled := originDelta("nocdn.audit.records")
	if batchNs > 0 {
		res.set("settle.records_per_s", settled/(float64(batchNs)/1e9))
	}
	if settled > 0 {
		// Whole-process CPU of the saturation phase per record it settled:
		// on a page-view workload this is the view's cost seen per record.
		res.set("settle.cpu_us_per_record", (in.lat.cpu+in.sat.cpu)*1e6/settled)
	}
	res.set("settle.records_rejected", originDelta("nocdn.origin.records_rejected"))
	res.set("settle.batches_replayed", originDelta("nocdn.origin.batches_replayed"))
	res.set("audit.peers_scored", float64(in.scored))
	res.set("audit.flagged", float64(in.flagged))
	setWAL(res, originDelta)
	res.set("fleet.reports_ingested", float64(reports))

	res.set("proc.gc_pause_ms_total", float64(in.baseline.gcPauseNs+in.lat.gcPauseNs+in.sat.gcPauseNs)/1e6)
	res.set("proc.gc_cycles", float64(in.baseline.gcCycles+in.lat.gcCycles+in.sat.gcCycles))
	res.set("proc.heap_mb_peak", float64(in.sampler.heapPeak)/(1<<20))
	res.set("proc.goroutines_peak", float64(in.sampler.goroutines))

	if critViews > 0 {
		perView := func(l layer) float64 { return float64(crit[l]) / 1e6 / float64(critViews) }
		res.set("crit.loader_ms", perView(layerLoader))
		res.set("crit.http_ms", perView(layerHTTP))
		res.set("crit.origin_wrapper_ms", perView(layerOriginWrapper))
		res.set("crit.peer_serve_ms", perView(layerPeerServe))
		res.set("crit.peer_records_ms", perView(layerPeerRecords))
		res.set("crit.origin_content_ms", perView(layerOriginContent))
		six := float64(critNs-crit[layerOther]) / 1e6 / float64(critViews)
		meanView := float64(critNs) / 1e6 / float64(critViews)
		res.check("crit.* sum to the mean traced view time within 5%", six >= 0.95*meanView && six <= 1.05*meanView,
			"layers sum to %.3f ms, mean traced view is %.3f ms", six, meanView)
	} else {
		res.check("crit.* sum to the mean traced view time within 5%", false, "no traced view in the latency phase")
	}
	base, okBase := percentile(sortedCopy(in.baseline.latMs), 0.5)
	tracedP50, okTraced := percentile(sortedCopy(in.lat.latMs), 0.5)
	if okBase && okTraced && base > 0 {
		res.set("trace.overhead_pct", (tracedP50/base-1)*100)
	} else {
		res.Omitted["trace.overhead_pct"] = "too few views in the baseline or traced latency phase"
	}
	if res.Attempted > 0 {
		res.set("run.failed_ratio", float64(res.Failed)/float64(res.Attempted))
	}

	// Layer pass: direct timed calls into public functions on the warmed
	// stack, after the timed phases.
	var view [][]byte
	for _, path := range st.pages[0] {
		view = append(view, st.content[path])
	}
	layerPass(res, st.origin, pageName(0), clientName(0), view)

	if cfg.traceOut != "" {
		err := writeTrace(cfg.traceOut, spans, tree)
		res.check("trace file written", err == nil, "%v", err)
	}
}

// setWAL fills the wal.* counters from origin metric deltas.
func setWAL(res *result, originDelta func(string) float64) {
	appends, fsyncs := originDelta("nocdn.wal.appends"), originDelta("nocdn.wal.fsyncs")
	res.set("wal.appends", appends)
	res.set("wal.fsyncs", fsyncs)
	if fsyncs > 0 {
		res.set("wal.records_per_fsync", appends/fsyncs)
	}
	res.set("wal.snapshots", originDelta("nocdn.wal.snapshots"))
}

// timeEach runs fn n times and returns the mean nanoseconds per call.
func timeEach(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// layerPass times the pure functions a page view and a settlement are made
// of, one at a time, on an origin whose pools are warm. view is the objects
// of one page (nil on the control workload, which has no data plane).
func layerPass(res *result, o *nocdn.Origin, page, client string, view [][]byte) {
	const (
		batches    = 16
		batchSize  = 64
		recordSize = 64
	)
	fail := func(err error) { res.check("layer pass", false, "%v", err) }
	w, err := o.AssignWrapper(page, client)
	if err != nil {
		fail(err)
		return
	}
	res.set("origin.assign_ns", timeEach(2000, func(int) { o.AssignWrapper(page, client) }))
	res.set("origin.wrapper_encode_us", timeEach(500, func(int) { json.Marshal(w) })/1e3)
	if view != nil {
		res.set("loader.verify_ms_per_view", timeEach(5, func(int) {
			for _, obj := range view {
				nocdn.HashBytes(obj)
			}
		})/1e6)
	}

	ids := sortedKeys(w.Keys)
	if len(ids) == 0 {
		fail(fmt.Errorf("wrapper for %s names no keyed peer", page))
		return
	}
	id := ids[0]
	secret, err := hex.DecodeString(w.Keys[id].Secret)
	if err != nil {
		fail(err)
		return
	}
	signed := make([]nocdn.RecordBatch, batches)
	bodies := make([][]byte, batches)
	now := time.Now()
	for b := range signed {
		records := make([]nocdn.UsageRecord, batchSize)
		for r := range records {
			records[r] = nocdn.UsageRecord{
				Provider: provider, PeerID: id, KeyID: w.Keys[id].KeyID, Page: page,
				Bytes: recordSize, Objects: 1, Nonce: fmt.Sprintf("lp-%d-%d-%d", now.UnixNano(), b, r), IssuedAt: now,
			}
			records[r].Sign(secret)
		}
		signed[b] = nocdn.NewRecordBatch(id, records)
		if bodies[b], err = nocdn.EncodeBatch(signed[b]); err != nil {
			fail(err)
			return
		}
	}
	decode := timeEach(batches, func(i int) { nocdn.DecodeBatch(bodies[i]) }) / 1e3 / batchSize
	merkle := timeEach(batches, func(i int) {
		leaves := make([][]byte, batchSize)
		for r := range leaves {
			leaves[r] = signed[i].Records[r].LeafBytes()
		}
		nocdn.MerkleRoot(leaves)
	}) / 1e3
	verify := timeEach(batches*batchSize, func(i int) {
		signed[i/batchSize].Records[i%batchSize].VerifySignature(secret)
	}) / 1e3
	credited := 0
	direct := timeEach(batches, func(i int) {
		n, _ := o.SettleBatch(signed[i])
		credited += n
	}) / 1e3 / batchSize
	res.check("layer pass: every fresh batch settles in full", credited == batches*batchSize,
		"credited %d of %d records", credited, batches*batchSize)
	res.set("settle.decode_us_per_record", decode)
	res.set("settle.merkle_us_per_batch", merkle)
	res.set("settle.verify_us_per_record", verify)
	res.set("settle.direct_us_per_record", direct)
	res.set("settle.residual_us_per_record", direct-merkle/batchSize-verify*nocdn.DefaultSettleSampleK/batchSize)
	res.set("fleet.snapshot_ms", timeEach(5, func(int) { o.Fleet().Snapshot(10) })/1e6)
}
