package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// fleet-sweep measures the origin's telemetry plane across fleet sizes: N
// synthetic peers each ship one delta report per interval, and the sweep
// records how fast the sharded aggregator absorbs them and how quickly
// /debug/fleet answers while ingest-sized state is resident. The claim
// under test is that a single origin absorbs 100k reports per interval and
// still serves the fleet debug view in single-digit milliseconds — ingest
// is sharded and nearly lock-free, and the snapshot path never rescans
// histogram buckets (per-source p99s are recomputed at ingest).

// fleetPoint is one fleet size's measured result.
type fleetPoint struct {
	Sources         int     `json:"sources"`
	Rounds          int     `json:"rounds"`
	ReportsIngested int64   `json:"reportsIngested"`
	IngestPerSec    float64 `json:"ingestPerSec"`
	IngestWorkers   int     `json:"ingestWorkers"`
	FleetServeP50Ms float64 `json:"fleetServeP50Ms"`
	FleetServeP99Ms float64 `json:"fleetServeP99Ms"`
	ActiveSources   int     `json:"activeSources"`
	HotKeysTracked  int     `json:"hotKeysTracked"`
}

type fleetConfig struct {
	SourceSizes []int  `json:"sourceSizes"`
	Rounds      int    `json:"roundsPerPoint"`
	Serves      int    `json:"fleetServesPerPoint"`
	KeySpace    int    `json:"hotKeySpace"`
	Seed        uint64 `json:"seed"`
}

type fleetResult struct {
	Bench       string       `json:"bench"`
	GeneratedBy string       `json:"generatedBy"`
	Config      fleetConfig  `json:"config"`
	Sweep       []fleetPoint `json:"sweep"`
}

func runFleetSweep(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("fleet-sweep", flag.ContinueOnError)
	sources := fs.String("sources", "1000,10000,100000", "fleet sizes (reports per interval) to sweep")
	rounds := fs.Int("rounds", 3, "report intervals per point (each source ships one report per round)")
	serves := fs.Int("serves", 200, "measured /debug/fleet serves per point")
	keySpace := fs.Int("keyspace", 10000, "distinct hot keys across the synthetic fleet")
	seed := fs.Uint64("seed", 1, "RNG seed")
	outPath := fs.String("out", "BENCH_nocdn_fleet.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sizes []int
	for _, tok := range strings.Split(*sources, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -sources entry %q", tok)
		}
		sizes = append(sizes, n)
	}

	res := fleetResult{
		Bench:       "nocdn_fleet",
		GeneratedBy: "hpopbench fleet-sweep",
		Config: fleetConfig{
			SourceSizes: sizes, Rounds: *rounds, Serves: *serves,
			KeySpace: *keySpace, Seed: *seed,
		},
	}
	fmt.Fprintf(out, "fleet-sweep: %d rounds per point, %d /debug/fleet serves, %d-key hot space\n",
		*rounds, *serves, *keySpace)
	fmt.Fprintf(out, "%-10s %-10s %-12s %-12s %-12s %-10s\n",
		"sources", "reports", "ingest", "fleet-p50", "fleet-p99", "hotkeys")
	fmt.Fprintf(out, "%-10s %-10s %-12s %-12s %-12s %-10s\n",
		"", "", "(rep/s)", "(ms)", "(ms)", "")

	for _, n := range sizes {
		pt, err := fleetOnePoint(n, *rounds, *serves, *keySpace, *seed)
		if err != nil {
			return err
		}
		res.Sweep = append(res.Sweep, pt)
		fmt.Fprintf(out, "%-10d %-10d %-12.0f %-12.4f %-12.4f %-10d\n",
			pt.Sources, pt.ReportsIngested, pt.IngestPerSec,
			pt.FleetServeP50Ms, pt.FleetServeP99Ms, pt.HotKeysTracked)
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// syntheticReport builds one source's delta for one round: plausible proxy
// counters, a serve-latency histogram delta, and a handful of hot keys
// drawn from the shared key space.
func syntheticReport(source string, seq uint64, rng *sim.RNG, keySpace int) *hpop.TelemetryReport {
	hits := float64(50 + rng.Intn(200))
	misses := float64(5 + rng.Intn(20))
	errs := float64(rng.Intn(3))
	bounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
	counts := make([]uint64, len(bounds)+1)
	var sum float64
	total := int(hits + misses)
	for i := 0; i < total; i++ {
		b := rng.Intn(len(bounds))
		counts[b]++
		sum += bounds[b] / 2
	}
	hot := map[string]uint64{}
	for i := 0; i < 4; i++ {
		// Square the draw to skew demand toward low key ids — a cheap
		// deterministic stand-in for zipf popularity.
		k := rng.Intn(keySpace)
		k = k * k / keySpace
		hot[fmt.Sprintf("bench.example/obj-%05d", k)] += uint64(1 + rng.Intn(50))
	}
	return &hpop.TelemetryReport{
		Source: source,
		Seq:    seq,
		Counters: map[string]float64{
			"nocdn.peer.hits":         hits,
			"nocdn.peer.misses":       misses,
			"nocdn.peer.proxy_errors": errs,
		},
		Gauges: map[string]float64{"nocdn.peer.saturation": float64(rng.Intn(100)) / 100},
		Histograms: map[string]hpop.HistogramDelta{
			"nocdn.peer.serve_seconds": {Bounds: bounds, Counts: counts, Sum: sum},
		},
		HotKeys: hot,
	}
}

// fleetOnePoint measures one fleet size against an in-process aggregator
// wired the way the origin wires it: metrics registry, SLO engine, and the
// /debug/fleet handler.
func fleetOnePoint(sources, rounds, serves, keySpace int, seed uint64) (fleetPoint, error) {
	pt := fleetPoint{Sources: sources, Rounds: rounds}
	m := hpop.NewMetrics()
	slo := hpop.NewSLOEngine(time.Now)
	slo.Declare(hpop.SLOConfig{Name: nocdn.SLOFleetAvailability, Objective: 0.999})
	slo.Declare(hpop.SLOConfig{Name: nocdn.SLOFleetServeLatency, Objective: 0.99})
	a := nocdn.NewFleetAggregator(time.Now)
	a.SetMetrics(m)
	a.SetSLOEngine(slo)

	// Pre-build every round's reports off the measured path.
	rng := sim.NewRNG(seed)
	reports := make([]*hpop.TelemetryReport, 0, sources*rounds)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < sources; i++ {
			reports = append(reports, syntheticReport(
				fmt.Sprintf("peer-%06d", i), uint64(round), rng, keySpace))
		}
	}

	// Measured ingest: a worker per core, the way concurrent HTTP handlers
	// would hit the sharded aggregator. Each worker owns the sources
	// i ≡ w (mod workers) and walks their reports in round order, so one
	// source's sequence numbers arrive in order (as a peer's own uploads do)
	// and the aggregator never has a lower seq to drop.
	workers := runtime.GOMAXPROCS(0)
	pt.IngestWorkers = workers
	var applied atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n int64
			defer func() { applied.Add(n) }()
			for round := 0; round < rounds; round++ {
				for i := w; i < sources; i += workers {
					ok, err := a.Ingest(reports[round*sources+i])
					if err != nil {
						errCh <- err
						return
					}
					if ok {
						n++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return pt, err
	default:
	}
	pt.ReportsIngested = applied.Load()
	pt.IngestPerSec = float64(pt.ReportsIngested) / elapsed.Seconds()

	// Measured /debug/fleet serves with the full fleet resident. The
	// ingest burst leaves a pile of garbage (300k decoded report maps at
	// the top size); collect it first so the serve percentiles measure the
	// handler, not the previous phase's GC debt.
	runtime.GC()
	handler := a.Handler()
	lat := make([]float64, 0, serves)
	for i := 0; i < serves; i++ {
		rr := httptest.NewRecorder()
		ts := time.Now()
		handler(rr, httptest.NewRequest("GET", "/debug/fleet", nil))
		lat = append(lat, float64(time.Since(ts).Microseconds())/1000)
		if rr.Code != 200 {
			return pt, fmt.Errorf("/debug/fleet status %d", rr.Code)
		}
	}
	sort.Float64s(lat)
	pt.FleetServeP50Ms = lat[len(lat)/2]
	pt.FleetServeP99Ms = lat[len(lat)*99/100]

	snap := a.Snapshot(nocdn.DefaultFleetTopK)
	pt.ActiveSources = int(snap.ActiveSources)
	pt.HotKeysTracked = len(snap.HotKeys)
	return pt, nil
}
