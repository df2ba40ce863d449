package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFleetSweepSmoke runs a small sweep end-to-end and validates the JSON
// artifact: it parses back into the schema, every report is absorbed
// exactly once (sequence dedup holds under concurrent ingest), and the
// fleet debug view answers with the fleet resident. Its timing floors, at
// every fleet size: ingest above 10k reports/s (well above one 15 s
// interval's worth) and /debug/fleet p99 below 5 ms. It runs at CI's sizes
// where the floors are judged, and at small ones under -race, where they are
// not.
func TestFleetSweepSmoke(t *testing.T) {
	args := []string{"-sources", "1000,20000", "-rounds", "2", "-serves", "100"}
	if raceEnabled {
		args = []string{"-sources", "50,400", "-rounds", "2", "-serves", "20", "-keyspace", "500"}
	}
	judgeFloors(t, func() (missed []string) {
		out := filepath.Join(t.TempDir(), "BENCH_nocdn_fleet.json")
		err := runFleetSweep(io.Discard, append(args, "-out", out))
		if err != nil {
			t.Fatal(err)
		}

		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res fleetResult
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if res.Bench != "nocdn_fleet" {
			t.Fatalf("bench = %q, want nocdn_fleet", res.Bench)
		}
		if len(res.Sweep) != 2 {
			t.Fatalf("got %d sweep points, want 2", len(res.Sweep))
		}
		for _, pt := range res.Sweep {
			if pt.ReportsIngested != int64(pt.Sources*pt.Rounds) {
				t.Errorf("%d sources: ingested %d reports, want %d (every report exactly once)",
					pt.Sources, pt.ReportsIngested, pt.Sources*pt.Rounds)
			}
			if pt.IngestPerSec <= 0 {
				t.Errorf("%d sources: non-positive ingest throughput: %+v", pt.Sources, pt)
			}
			if pt.ActiveSources != pt.Sources {
				t.Errorf("%d sources: snapshot saw %d active", pt.Sources, pt.ActiveSources)
			}
			if pt.HotKeysTracked == 0 {
				t.Errorf("%d sources: hot-key sketch empty", pt.Sources)
			}
			if pt.FleetServeP99Ms <= 0 {
				t.Errorf("%d sources: fleet serve p99 unmeasured: %+v", pt.Sources, pt)
			}
			if pt.IngestPerSec <= 10000 {
				missed = append(missed, fmt.Sprintf("ingest %.0f reports/s at %d sources, want > 10000",
					pt.IngestPerSec, pt.Sources))
			}
			if pt.FleetServeP99Ms >= 5 {
				missed = append(missed, fmt.Sprintf("/debug/fleet p99 %.2f ms at %d sources, want < 5",
					pt.FleetServeP99Ms, pt.Sources))
			}
		}
		return missed
	})
}

func TestFleetSweepBadSources(t *testing.T) {
	if err := runFleetSweep(io.Discard, []string{"-sources", "100,none"}); err == nil {
		t.Error("bad -sources entry accepted")
	}
}
