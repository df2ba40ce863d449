package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpop/internal/nocdn"
	"hpop/internal/sim"
)

// control-sweep measures the origin control plane across fleet sizes: it
// registers N simulated peers, serves pooled wrappers to a fixed client
// population, and settles Merkle-committed record batches from a FIXED
// submitter pool. The claim under test is that neither wrapper serving nor
// settlement degrades with fleet size — wrapper-map generation is off the
// request hot path (pool hits only during the measured pass) and
// settlement cost is O(records), not O(fleet). The submitter pool
// is held constant across fleet sizes so the audit pipeline's per-record
// rescan (O(audited peers)) contributes equally to every point and the
// sweep isolates ledger/ring scaling.

// controlPoint is one fleet size's measured result.
type controlPoint struct {
	Peers               int     `json:"peers"`
	RegisterMs          float64 `json:"registerMs"`
	WarmBuilds          int64   `json:"warmBuilds"`
	WrapperP50Ms        float64 `json:"wrapperP50Ms"`
	WrapperP99Ms        float64 `json:"wrapperP99Ms"`
	WrapperServesPerSec float64 `json:"wrapperServesPerSec"`
	BuildsDuringMeasure int64   `json:"buildsDuringMeasure"`
	SettleRecordsPerSec float64 `json:"settleRecordsPerSec"`
	SettleBatchP50Ms    float64 `json:"settleBatchP50Ms"`
	SettleBatchP99Ms    float64 `json:"settleBatchP99Ms"`
	RecordsCredited     int     `json:"recordsCredited"`
	Submitters          int     `json:"submitters"`
	EpochTickMs         float64 `json:"epochTickMs"`
}

type controlConfig struct {
	PeerSizes  []int  `json:"peerSizes"`
	Clients    int    `json:"clients"`
	Requests   int    `json:"requestsPerPoint"`
	BatchSize  int    `json:"recordsPerBatch"`
	Batches    int    `json:"batchesPerPoint"`
	Submitters int    `json:"submitterCap"`
	Vnodes     int    `json:"ringVnodes"`
	Seed       uint64 `json:"seed"`
}

type controlResult struct {
	Bench       string         `json:"bench"`
	GeneratedBy string         `json:"generatedBy"`
	Config      controlConfig  `json:"config"`
	Sweep       []controlPoint `json:"sweep"`
}

func runControlSweep(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("control-sweep", flag.ContinueOnError)
	peers := fs.String("peers", "1000,100000,1000000", "fleet sizes to sweep")
	clients := fs.Int("clients", 512, "distinct client identities hitting the pool")
	requests := fs.Int("requests", 5000, "measured wrapper serves per point")
	batchSize := fs.Int("batch", 64, "records per settlement batch")
	batches := fs.Int("batches", 200, "settlement batches per point")
	submitters := fs.Int("submitters", 48, "settlement submitter pool cap (fixed across fleet sizes)")
	vnodes := fs.Int("vnodes", 16, "ring virtual nodes per peer")
	seed := fs.Uint64("seed", 1, "RNG seed")
	outPath := fs.String("out", "BENCH_nocdn_control.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sizes []int
	for _, tok := range strings.Split(*peers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -peers entry %q", tok)
		}
		sizes = append(sizes, n)
	}

	res := controlResult{
		Bench:       "nocdn_control",
		GeneratedBy: "hpopbench control-sweep",
		Config: controlConfig{
			PeerSizes: sizes, Clients: *clients, Requests: *requests,
			BatchSize: *batchSize, Batches: *batches,
			Submitters: *submitters, Vnodes: *vnodes, Seed: *seed,
		},
	}
	fmt.Fprintf(out, "control-sweep: %d clients, %d wrapper serves, %d batches x %d records per point\n",
		*clients, *requests, *batches, *batchSize)
	fmt.Fprintf(out, "%-10s %-11s %-12s %-12s %-10s %-12s %-10s %-8s\n",
		"peers", "register", "wrap-p50", "wrap-p99", "builds", "settle", "batch-p99", "tick")
	fmt.Fprintf(out, "%-10s %-11s %-12s %-12s %-10s %-12s %-10s %-8s\n",
		"", "(ms)", "(ms)", "(ms)", "(measure)", "(rec/s)", "(ms)", "(ms)")

	for _, n := range sizes {
		pt, err := controlOnePoint(n, *clients, *requests, *batchSize, *batches, *submitters, *vnodes, *seed)
		if err != nil {
			return err
		}
		res.Sweep = append(res.Sweep, pt)
		fmt.Fprintf(out, "%-10d %-11.1f %-12.4f %-12.4f %-10d %-12.0f %-10.3f %-8.1f\n",
			pt.Peers, pt.RegisterMs, pt.WrapperP50Ms, pt.WrapperP99Ms,
			pt.BuildsDuringMeasure, pt.SettleRecordsPerSec, pt.SettleBatchP99Ms, pt.EpochTickMs)
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

// controlOnePoint measures one fleet size against an in-process origin.
func controlOnePoint(peers, clients, requests, batchSize, batches, submitterCap, vnodes int, seed uint64) (controlPoint, error) {
	pt := controlPoint{Peers: peers}
	o := nocdn.NewOrigin("bench.example", func(o *nocdn.Origin) {
		o.RingVnodes = vnodes
	})
	o.AddObject("/index.html", make([]byte, 1000))
	o.AddObject("/app.js", make([]byte, 4000))
	o.AddObject("/hero.jpg", make([]byte, 16000))
	if err := o.AddPage(nocdn.Page{
		Name: "bench", Container: "/index.html",
		Embedded: []string{"/app.js", "/hero.jpg"},
	}); err != nil {
		return pt, err
	}

	t0 := time.Now()
	for i := 0; i < peers; i++ {
		o.RegisterPeer(fmt.Sprintf("peer-%07d", i), fmt.Sprintf("http://peer-%07d", i), 10)
	}
	pt.RegisterMs = float64(time.Since(t0).Microseconds()) / 1000

	// Warm pass: every client pulls its pooled map once. This is where the
	// ring sorts and the pool fills — all of it off the measured path. One
	// wrapper key per named peer is harvested for the settlement phase.
	clientID := func(c int) string { return fmt.Sprintf("client-%05d", c) }
	type peerKey struct{ keyID, secret string }
	keys := make(map[string]peerKey)
	for c := 0; c < clients; c++ {
		w, err := o.AssignWrapper("bench", clientID(c))
		if err != nil {
			return pt, err
		}
		for id, k := range w.Keys {
			if _, ok := keys[id]; !ok {
				keys[id] = peerKey{keyID: k.KeyID, secret: k.Secret}
			}
		}
	}
	pt.WarmBuilds = o.WrapperGenerations()

	// Measured wrapper pass: uniform random over the client population. At
	// fleet scale every serve must be a pool hit — BuildsDuringMeasure is
	// the hot-path assertion TestControlSweepSmoke checks.
	rng := sim.NewRNG(seed)
	lat := make([]float64, 0, requests)
	start := time.Now()
	for i := 0; i < requests; i++ {
		ts := time.Now()
		if _, err := o.AssignWrapper("bench", clientID(int(rng.Intn(clients)))); err != nil {
			return pt, err
		}
		lat = append(lat, float64(time.Since(ts).Microseconds())/1000)
	}
	elapsed := time.Since(start)
	pt.BuildsDuringMeasure = o.WrapperGenerations() - pt.WarmBuilds
	sort.Float64s(lat)
	pt.WrapperP50Ms = lat[len(lat)/2]
	pt.WrapperP99Ms = lat[len(lat)*99/100]
	pt.WrapperServesPerSec = float64(requests) / elapsed.Seconds()

	// Settlement phase: a fixed submitter pool (the audit pipeline rescans
	// every audited peer per record, so the pool must not grow with the
	// fleet) uploads pre-signed Merkle batches.
	var submitters []string
	for id := range keys {
		submitters = append(submitters, id)
	}
	sort.Strings(submitters)
	if len(submitters) > submitterCap {
		submitters = submitters[:submitterCap]
	}
	pt.Submitters = len(submitters)
	prebuilt := make([]nocdn.RecordBatch, batches)
	nonce := 0
	for b := range prebuilt {
		id := submitters[b%len(submitters)]
		secret, err := hex.DecodeString(keys[id].secret)
		if err != nil {
			return pt, err
		}
		records := make([]nocdn.UsageRecord, batchSize)
		for r := range records {
			nonce++
			records[r] = nocdn.UsageRecord{
				Provider: "bench.example", PeerID: id, KeyID: keys[id].keyID,
				Page: "bench", Bytes: 500, Objects: 1,
				Nonce: fmt.Sprintf("cs-%d", nonce), IssuedAt: time.Now(),
			}
			records[r].Sign(secret)
		}
		prebuilt[b] = nocdn.NewRecordBatch(id, records)
	}
	batchLat := make([]float64, 0, batches)
	start = time.Now()
	for _, b := range prebuilt {
		ts := time.Now()
		n, err := o.SettleBatch(b)
		if err != nil {
			return pt, err
		}
		pt.RecordsCredited += n
		batchLat = append(batchLat, float64(time.Since(ts).Microseconds())/1000)
	}
	elapsed = time.Since(start)
	sort.Float64s(batchLat)
	pt.SettleBatchP50Ms = batchLat[len(batchLat)/2]
	pt.SettleBatchP99Ms = batchLat[len(batchLat)*99/100]
	pt.SettleRecordsPerSec = float64(batches*batchSize) / elapsed.Seconds()

	// One epoch tick: the cost of refreshing every pooled map, paid on the
	// control plane's heartbeat instead of per request.
	ts := time.Now()
	o.EpochTick()
	pt.EpochTickMs = float64(time.Since(ts).Microseconds()) / 1000
	return pt, nil
}
