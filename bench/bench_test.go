package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileOnKnownArrays(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true}, // the 90th of 100: exactly ten lie beyond it
		{101, 0.90, 91, true},
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{1500, 0.99, 1485, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{19, 0.50, 10, false},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %.2f) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		n := samplesNeeded(q)
		if _, ok := percentile(seq(n), q); !ok {
			t.Errorf("samplesNeeded(%.2f) = %d, but percentile is not ok there", q, n)
		}
		if _, ok := percentile(seq(n-1), q); ok {
			t.Errorf("samplesNeeded(%.2f) = %d, but %d samples already suffice", q, n, n-1)
		}
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v; want 1 (IQR 5.5 over median 5.5)", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three runs = %v; want 0.2 (range over median)", got)
	}
}

// mk builds a span for hand-made trees; times are in arbitrary units.
func mk(id, parent int64, kind spanKind, rt route, start, end int64) span {
	return span{ID: id, Parent: parent, Kind: kind, Route: rt, Start: start, End: end, Peer: -1}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, kindView, routeNone, 0, 100),
		mk(2, 1, kindRT, routeProxy, 10, 40),
		mk(3, 1, kindRT, routeProxy, 30, 60),   // overlaps span 2 by 10
		mk(4, 1, kindRT, routeProxy, 35, 50),   // wholly inside the union
		mk(5, 1, kindRT, routeRecord, 80, 120), // runs past the parent: clipped to 100
		mk(6, 2, kindMW, routeProxy, 15, 45),   // child of 2, ends after it: clipped to 40
	}
	tree := buildTree(spans)
	// Union of children inside [0,100]: [10,60] and [80,100] = 70.
	if got := tree.selfTime(0); got != 30 {
		t.Errorf("view self time = %d; want 30", got)
	}
	if got := tree.selfTime(1); got != 5 {
		t.Errorf("rt self time = %d; want 5 (30 long, child covers [15,40])", got)
	}
	if got := tree.selfTime(3); got != 15 {
		t.Errorf("leaf self time = %d; want its duration 15", got)
	}
	if got := tree.viewOf(5); got != 1 {
		t.Errorf("viewOf(grandchild) = %d; want 1", got)
	}
}

func TestCriticalPathWalk(t *testing.T) {
	// A view that fetches a wrapper, then two objects in parallel, then
	// delivers a record. The second object finishes last and misses to the
	// origin.
	spans := []span{
		mk(1, 0, kindView, routeNone, 0, 100),
		mk(2, 1, kindRT, routeWrapper, 2, 12),
		mk(3, 2, kindMW, routeWrapper, 4, 10),
		mk(4, 1, kindRT, routeProxy, 14, 50), // finishes first: off the critical path
		mk(5, 4, kindMW, routeProxy, 16, 48),
		mk(6, 1, kindRT, routeProxy, 15, 80), // finishes last
		mk(7, 6, kindMW, routeProxy, 20, 76),
		mk(8, 7, kindRT, routeContent, 30, 70), // the peer's backfill
		mk(9, 8, kindMW, routeContent, 35, 65),
		mk(10, 1, kindRT, routeRecord, 84, 96),
		mk(11, 10, kindMW, routeRecord, 86, 94),
	}
	tree := buildTree(spans)
	var crit [numLayers]int64
	tree.critical(0, 0, 100, &crit)
	want := [numLayers]int64{}
	want[layerLoader] = 4 + 4 + 3 + 2 // (96,100] (80,84] (12,15] [0,2)
	want[layerHTTP] = 4 + 9 + 10 + 4  // record rt, object rt, backfill rt, wrapper rt
	want[layerPeerRecords] = 8
	want[layerPeerServe] = 6 + 10 // (70,76] and [20,30)
	want[layerOriginContent] = 30
	want[layerOriginWrapper] = 6
	if crit != want {
		t.Errorf("critical path charges = %v; want %v", crit, want)
	}
	var sum int64
	for _, v := range crit {
		sum += v
	}
	if sum != 100 {
		t.Errorf("charges sum to %d; want the view's 100", sum)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	draw := func(seed int64, stream int, zipf bool) [][2]int {
		g := newViewGen(seed, stream, 64, 512, zipf)
		out := make([][2]int, 500)
		for i := range out {
			out[i][0], out[i][1] = g.next()
		}
		return out
	}
	for _, zipf := range []bool{false, true} {
		a, b := draw(1, 3, zipf), draw(1, 3, zipf)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("zipf=%v: same seed and stream gave different sequences", zipf)
		}
		if reflect.DeepEqual(a, draw(2, 3, zipf)) {
			t.Errorf("zipf=%v: different seeds gave the same sequence", zipf)
		}
		if reflect.DeepEqual(a, draw(1, 4, zipf)) {
			t.Errorf("zipf=%v: different streams gave the same sequence", zipf)
		}
		for _, d := range a {
			if d[0] < 0 || d[0] >= 64 || d[1] < 0 || d[1] >= 512 {
				t.Fatalf("draw %v out of range", d)
			}
		}
	}
	// Zipf(s=1): the most popular page takes about 1/H(512) ≈ 14.6% of the
	// draws, and which page that is depends on the seed.
	top := func(seed int64) (page int, share float64) {
		g := newViewGen(seed, 0, 64, 512, true)
		counts := map[int]int{}
		for i := 0; i < 20000; i++ {
			_, p := g.next()
			counts[p]++
		}
		for p, n := range counts {
			if n > counts[page] {
				page = p
			}
		}
		return page, float64(counts[page]) / 20000
	}
	p1, share := top(1)
	if share < 0.12 || share > 0.17 {
		t.Errorf("top page share = %.3f; want about 0.146", share)
	}
	if p7, _ := top(7); p7 == p1 {
		t.Errorf("seeds 1 and 7 rank the same page first (%d)", p1)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--seed", "3", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "20", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v; want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-repeat", "3"})
	if !reflect.DeepEqual(got, []string{"-trace", "-repeat", "3"}) {
		t.Errorf("bare -trace was rewritten: %v", got)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads = %v; the benchmark runs %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics; spec.go has %d", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end #%d: BENCHMARK.json has %+v; spec.go has %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics; spec.go has %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer #%d: BENCHMARK.json has %+v; spec.go has %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeAllWorkloads runs every workload at smoke scale, traced (a traced
// run computes both metric tables), and checks that the names emitted are
// exactly the names BENCHMARK.json lists and that every value is finite. It
// asserts nothing about timing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the whole stack four times")
	}
	b := readBenchmarkJSON(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{workload: wl, scale: "smoke", seed: 1, seconds: 1.5, trace: true,
				dir: dir, traceOut: traceFile(dir, wl), start: time.Now(), log: io.Discard}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("output check failed: %s: %s", c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range b.EndToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
					t.Errorf("end-to-end %s = %v (emitted=%v, omitted: %q); want a finite non-zero number", d.Name, v, ok, res.Omitted[d.Name])
				}
			}
			listed := map[string]bool{}
			for _, d := range b.EndToEnd {
				listed[d.Name] = true
			}
			for _, d := range b.PerLayer {
				listed[d.Name] = true
			}
			for _, m := range []map[string]float64{res.EndToEnd, res.PerLayer} {
				for name, v := range m {
					if !listed[name] {
						t.Errorf("emitted %s, which BENCHMARK.json does not list", name)
					}
					if !nameRE.MatchString(name) || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v", name, v)
					}
				}
			}
			// The contract line carries every per-layer name, 0 where the
			// metric does not apply.
			line := res.contractLine()["metrics"].(map[string]any)
			for _, d := range b.PerLayer {
				if _, ok := line[d.Name]; !ok {
					t.Errorf("contract line lacks %s", d.Name)
				}
			}
			if len(line) != len(b.PerLayer) {
				t.Errorf("contract line has %d metrics; BENCHMARK.json lists %d per-layer", len(line), len(b.PerLayer))
			}
			if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
