package main

import "fmt"

// Workload names are fixed; later issues cite them.
const (
	wlSmallMem = "page_small_mem"
	wlLargeDsk = "page_large_disk"
	wlZipf     = "page_zipf_spill"
	wlControl  = "control_settle_recover"
)

var workloadNames = []string{wlSmallMem, wlLargeDsk, wlZipf, wlControl}

// Fleet and load-model constants shared by the page-view workloads.
const (
	numPeers       = 4
	flushEvery     = 250 // ms between Peer.Flush calls, as nocdnd's operator cron would
	telemetryEvery = 1000
	maxSatClients  = 4
	// latShare of -seconds goes to the one-client latency phase, the rest to
	// the saturation phase, which is cut into satSlices equal slices.
	latShare  = 0.4
	satSlices = 3
	// tailQ is the tail percentile reported end to end: the highest one every
	// workload's latency phase can support with minBeyond samples beyond it.
	tailQ = 0.90
)

// pageSpec shapes one page-view workload (A–C): the catalogue, the peers'
// cache tiers, and how pages are drawn.
type pageSpec struct {
	pages          int
	objects        int // embedded objects per page, besides the container
	containerBytes int
	objectBytes    int
	chunkPeers     int // > 1: origin WithChunking(chunkPeers, chunkThreshold)
	chunkThreshold int
	memBytes       int
	diskBytes      int64
	segBytes       int64
	clients        int
	zipf           bool
	// prefill fetches every object through every peer before the clock
	// starts, so the timed phases see no miss (A, B). Workloads that want
	// misses skip it and warm with views only (C).
	prefill   bool
	warmViews int
}

// controlSpec shapes the control-plane workload (D).
type controlSpec struct {
	peers         int
	pages         int
	objects       int // objects per page, container included
	objectBytes   int
	clients       int
	batchRecords  int
	wrappersPerOp int
	// roundsPerSecond fixes the work: rounds = roundsPerSecond × -seconds.
	// Fixed work, one client, so counts repeat exactly and recovery replays
	// the same journal on every run; the rate is sized so the rounds take
	// about -seconds on the 2-core box the benchmark was written on.
	roundsPerSecond int
	signChunk       int // batches pre-signed per untimed chunk
	recordBytes     int64
}

func pageSpecFor(name, scale string) (pageSpec, error) {
	smoke := scale == "smoke"
	switch name {
	case wlSmallMem:
		if smoke {
			return pageSpec{pages: 4, objects: 6, containerBytes: 1 << 10, objectBytes: 2 << 10,
				memBytes: 4 << 20, diskBytes: 8 << 20, segBytes: 1 << 20, clients: 8, prefill: true, warmViews: 16}, nil
		}
		return pageSpec{pages: 32, objects: 24, containerBytes: 4 << 10, objectBytes: 8 << 10,
			memBytes: 64 << 20, diskBytes: 256 << 20, segBytes: 8 << 20, clients: 64, prefill: true, warmViews: 256}, nil
	case wlLargeDsk:
		if smoke {
			return pageSpec{pages: 2, objects: 2, containerBytes: 1 << 10, objectBytes: 256 << 10,
				chunkPeers: 4, chunkThreshold: 64 << 10,
				memBytes: 1 << 20, diskBytes: 16 << 20, segBytes: 1 << 20, clients: 8, prefill: true, warmViews: 8}, nil
		}
		return pageSpec{pages: 8, objects: 2, containerBytes: 4 << 10, objectBytes: 4 << 20,
			chunkPeers: 4, chunkThreshold: 1 << 20,
			memBytes: 8 << 20, diskBytes: 256 << 20, segBytes: 8 << 20, clients: 64, prefill: true, warmViews: 32}, nil
	case wlZipf:
		if smoke {
			return pageSpec{pages: 64, objects: 4, containerBytes: 1 << 10, objectBytes: 4 << 10,
				memBytes: 128 << 10, diskBytes: 256 << 10, segBytes: 64 << 10, clients: 8, zipf: true, warmViews: 300}, nil
		}
		return pageSpec{pages: 512, objects: 8, containerBytes: 4 << 10, objectBytes: 32 << 10,
			memBytes: 8 << 20, diskBytes: 32 << 20, segBytes: 4 << 20, clients: 64, zipf: true, warmViews: 2000}, nil
	}
	return pageSpec{}, fmt.Errorf("unknown page workload %q", name)
}

func controlSpecFor(scale string) controlSpec {
	if scale == "smoke" {
		return controlSpec{peers: 200, pages: 8, objects: 9, objectBytes: 4 << 10, clients: 32,
			batchRecords: 64, wrappersPerOp: 16, roundsPerSecond: 100, signChunk: 50, recordBytes: 64}
	}
	return controlSpec{peers: 2000, pages: 64, objects: 9, objectBytes: 4 << 10, clients: 64,
		batchRecords: 64, wrappersPerOp: 16, roundsPerSecond: 250, signChunk: 1000, recordBytes: 64}
}

// metricDef is one row of the metric tables; BENCHMARK.json mirrors them
// (TestBenchmarkJSONMatchesSpec keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. "op" is the thing the
// workload's client waits for: one fully verified page view on A–C, one
// settlement round (one 64-record batch POST plus the 16 wrapper GETs of
// the views that produced those records) on D. Every workload reports every
// one of these.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_p90_ms", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.04},
	{"alloc_kb_per_op", "KiB", lower, 0.02},
	{"origin_kb_per_op", "KiB", lower, 0.12},
	{"rss_peak_mb", "MiB", lower, 0.25},
}

// perLayer is one row per layer metric; the layer is the name's prefix. A
// workload on which a metric has no meaning reports 0 for it.
var perLayer = []metricDef{
	{"loader.self_ms_p50", "ms", lower, 0},
	{"loader.verify_ms_per_view", "ms", lower, 0},
	{"loader.requests_per_view", "count", lower, 0},
	{"loader.records_per_view", "count", lower, 0},
	{"loader.view_p99_ms", "ms", lower, 0},
	{"loader.fallback_objects", "count", lower, 0},
	{"loader.degraded_objects", "count", lower, 0},
	{"http.overhead_us_p50", "us", lower, 0},
	{"http.conns_opened_per_view", "count", lower, 0},
	{"origin.wrapper_handler_us_p50", "us", lower, 0},
	{"origin.wrapper_get_ms_p50", "ms", lower, 0},
	{"origin.wrapper_kb_per_view", "KiB", lower, 0},
	{"origin.assign_ns", "ns", lower, 0},
	{"origin.wrapper_encode_us", "us", lower, 0},
	{"origin.pool_builds", "count", lower, 0},
	{"origin.register_us_per_peer", "us", lower, 0},
	{"origin.offload_ratio", "ratio", higher, 0},
	{"origin.content_requests_per_view", "count", lower, 0},
	{"origin.content_handler_us_p50", "us", lower, 0},
	{"origin.content_mb", "MiB", lower, 0},
	{"peer.serve_hit_us_p50", "us", lower, 0},
	{"peer.serve_miss_ms_p50", "ms", lower, 0},
	{"peer.hit_ratio_mem", "ratio", higher, 0},
	{"peer.hit_ratio_disk", "ratio", higher, 0},
	{"peer.miss_ratio", "ratio", lower, 0},
	{"peer.serve_busy_share", "ratio", lower, 0},
	{"peer.shed_requests", "count", lower, 0},
	{"segstore.spills", "count", lower, 0},
	{"segstore.spill_mb", "MiB", lower, 0},
	{"segstore.promotions", "count", lower, 0},
	{"segstore.segments_rotated", "count", lower, 0},
	{"segstore.segments_reclaimed", "count", lower, 0},
	{"segstore.disk_mb", "MiB", lower, 0},
	{"segstore.entries", "count", higher, 0},
	{"segstore.quarantined", "count", lower, 0},
	{"peer.record_handler_us_p50", "us", lower, 0},
	{"peer.flush_ms_p50", "ms", lower, 0},
	{"peer.flush_records_mean", "count", higher, 0},
	{"peer.pending_records_max", "count", lower, 0},
	{"peer.records_dropped", "count", lower, 0},
	{"peer.spool_appends", "count", lower, 0},
	{"settle.handler_ms_p50", "ms", lower, 0},
	{"settle.batch_p50_ms", "ms", lower, 0},
	{"settle.records_per_s", "1/s", higher, 0},
	{"settle.cpu_us_per_record", "us", lower, 0},
	{"settle.decode_us_per_record", "us", lower, 0},
	{"settle.merkle_us_per_batch", "us", lower, 0},
	{"settle.verify_us_per_record", "us", lower, 0},
	{"settle.direct_us_per_record", "us", lower, 0},
	{"settle.residual_us_per_record", "us", lower, 0},
	{"settle.records_rejected", "count", lower, 0},
	{"settle.batches_replayed", "count", lower, 0},
	{"audit.peers_scored", "count", lower, 0},
	{"audit.flagged", "count", lower, 0},
	{"wal.appends", "count", lower, 0},
	{"wal.fsyncs", "count", lower, 0},
	{"wal.records_per_fsync", "count", higher, 0},
	{"wal.bytes_per_record", "count", lower, 0},
	{"wal.snapshots", "count", lower, 0},
	{"wal.snapshot_ms", "ms", lower, 0},
	{"wal.recover_s", "s", lower, 0},
	{"wal.replayed_records", "count", lower, 0},
	{"wal.replay_records_per_s", "1/s", higher, 0},
	{"fleet.telemetry_ms_p50", "ms", lower, 0},
	{"fleet.reports_ingested", "count", lower, 0},
	{"fleet.snapshot_ms", "ms", lower, 0},
	{"proc.gc_pause_ms_total", "ms", lower, 0},
	{"proc.gc_cycles", "count", lower, 0},
	{"proc.heap_mb_peak", "MiB", lower, 0},
	{"proc.goroutines_peak", "count", lower, 0},
	{"crit.loader_ms", "ms", lower, 0},
	{"crit.http_ms", "ms", lower, 0},
	{"crit.origin_wrapper_ms", "ms", lower, 0},
	{"crit.peer_serve_ms", "ms", lower, 0},
	{"crit.peer_records_ms", "ms", lower, 0},
	{"crit.origin_content_ms", "ms", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
	{"run.failed_ratio", "ratio", lower, 0},
}
