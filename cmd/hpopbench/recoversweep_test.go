package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoverSweepSmoke journals two sizes, abandons the origin, and replays
// cold. The sweep itself diffs the recovered ledger against the write side
// (exactly-once replay). Its timing floor, at every size: pure journal
// replay at 50k records/s or more. It runs at CI's sizes where the floor is
// judged, and at small ones under -race, where it is not.
func TestRecoverSweepSmoke(t *testing.T) {
	records := "2000,20000"
	if raceEnabled {
		records = "200,2000"
	}
	judgeFloors(t, func() (missed []string) {
		out := filepath.Join(t.TempDir(), "BENCH_nocdn_recovery.json")
		err := runRecoverSweep(io.Discard, []string{
			"-records", records, "-min-replay", "0", "-out", out,
		})
		if err != nil {
			t.Fatal(err)
		}

		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res recoverResult
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if res.Bench != "nocdn_recovery" {
			t.Fatalf("bench = %q, want nocdn_recovery", res.Bench)
		}
		if len(res.Sweep) != 2 {
			t.Fatalf("got %d sweep points, want 2", len(res.Sweep))
		}
		for _, pt := range res.Sweep {
			if pt.RecordsReplayed < int64(pt.Batches) {
				t.Errorf("%d commits: replayed %d journal records, want every commit", pt.Batches, pt.RecordsReplayed)
			}
			if want := int64(pt.UsageRecords) * res.Config.RecBytes; pt.CreditedBytes != want {
				t.Errorf("%d commits: credited %d bytes, want %d", pt.Batches, pt.CreditedBytes, want)
			}
			if pt.ReplayRecordsPerSec < 50000 {
				missed = append(missed, fmt.Sprintf("replay %.0f records/s at %d commits, want >= 50000",
					pt.ReplayRecordsPerSec, pt.Batches))
			}
		}
		return missed
	})
}

func TestRecoverSweepBadRecords(t *testing.T) {
	if err := runRecoverSweep(io.Discard, []string{"-records", "100,many"}); err == nil {
		t.Error("bad -records entry accepted")
	}
}
