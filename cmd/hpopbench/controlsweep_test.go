package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestControlSweepSmoke runs a small sweep end-to-end and validates the JSON
// artifact: it parses back into the schema, covers every fleet size, every
// settlement record credits, and — the tentpole assertion — wrapper-map
// generation never happens during the measured serving pass. Its timing
// floor: settlement throughput at the larger fleet is at least half the
// smaller's. It runs at CI's sizes where the floor is judged, and at small
// ones under -race, where it is not.
func TestControlSweepSmoke(t *testing.T) {
	peers, clients, requests, batches, batch := "1000,20000", 128, 2000, 40, 32
	if raceEnabled {
		peers, clients, requests, batches, batch = "50,400", 32, 300, 6, 8
	}
	judgeFloors(t, func() []string {
		out := filepath.Join(t.TempDir(), "BENCH_nocdn_control.json")
		err := runControlSweep(io.Discard, []string{
			"-peers", peers, "-clients", fmt.Sprint(clients), "-requests", fmt.Sprint(requests),
			"-batches", fmt.Sprint(batches), "-batch", fmt.Sprint(batch), "-out", out,
		})
		if err != nil {
			t.Fatal(err)
		}

		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res controlResult
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatalf("artifact does not parse: %v", err)
		}
		if res.Bench != "nocdn_control" {
			t.Fatalf("bench = %q, want nocdn_control", res.Bench)
		}
		if len(res.Sweep) != 2 {
			t.Fatalf("got %d sweep points, want 2", len(res.Sweep))
		}
		for _, pt := range res.Sweep {
			if pt.BuildsDuringMeasure != 0 {
				t.Errorf("%d peers: %d wrapper builds during the measured pass, want 0 (pool missed)",
					pt.Peers, pt.BuildsDuringMeasure)
			}
			if pt.RecordsCredited != batches*batch {
				t.Errorf("%d peers: credited %d records, want %d", pt.Peers, pt.RecordsCredited, batches*batch)
			}
			if pt.WrapperServesPerSec <= 0 || pt.SettleRecordsPerSec <= 0 {
				t.Errorf("%d peers: non-positive throughput: %+v", pt.Peers, pt)
			}
			if pt.Submitters <= 0 {
				t.Errorf("%d peers: no settlement submitters harvested", pt.Peers)
			}
			if pt.WarmBuilds == 0 {
				t.Errorf("%d peers: warm pass built nothing — measurement would be vacuous", pt.Peers)
			}
		}
		small, large := res.Sweep[0].SettleRecordsPerSec, res.Sweep[1].SettleRecordsPerSec
		if large*2 <= small {
			return []string{fmt.Sprintf("settle %.0f rec/s at %d peers is not above half of %.0f at %d",
				large, res.Sweep[1].Peers, small, res.Sweep[0].Peers)}
		}
		return nil
	})
}

func TestControlSweepBadPeers(t *testing.T) {
	if err := runControlSweep(io.Discard, []string{"-peers", "100,zero"}); err == nil {
		t.Error("bad -peers entry accepted")
	}
}
