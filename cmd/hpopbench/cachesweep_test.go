package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCacheSweepSmoke runs a tiny sweep end-to-end and validates the JSON
// artifact: it must parse back into the schema, cover every requested ratio,
// and never lose a request (tier ratios sum to 1 at each point).
func TestCacheSweepSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_nocdn_cache.json")
	err := runCacheSweep(io.Discard, []string{
		"-mem-mb", "2", "-disk-mb", "32", "-segment-mb", "2",
		"-object-kb", "32", "-requests", "200", "-ratios", "0.5,4",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res sweepResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if res.Bench != "nocdn_cache" {
		t.Fatalf("bench = %q, want nocdn_cache", res.Bench)
	}
	if len(res.Sweep) != 2 {
		t.Fatalf("got %d sweep points, want 2", len(res.Sweep))
	}
	for _, pt := range res.Sweep {
		sum := pt.HitRatioMem + pt.HitRatioDisk + pt.MissRatio
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("ratio %.1f: tier ratios sum to %v, want 1", pt.RatioToRAM, sum)
		}
		if pt.MBps <= 0 || pt.P50Ms <= 0 {
			t.Errorf("ratio %.1f: non-positive measurement (%.1f MB/s, p50 %.3f ms)",
				pt.RatioToRAM, pt.MBps, pt.P50Ms)
		}
	}
	// The past-RAM point must actually exercise the disk tier.
	last := res.Sweep[len(res.Sweep)-1]
	if last.HitRatioDisk == 0 {
		t.Errorf("4x-RAM point never hit the disk tier: %+v", last)
	}
}

func TestCacheSweepBadRatio(t *testing.T) {
	if err := runCacheSweep(io.Discard, []string{"-ratios", "0.5,nope"}); err == nil {
		t.Error("bad -ratios entry accepted")
	}
}
