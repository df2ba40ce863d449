package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

// floorWindow bounds how long a sweep smoke retries before a timing floor
// counts as missed. go test ./... runs other packages' tests on the same
// cores, and contention only ever slows a run. The rest of tier-1 is done
// well inside the window (≈17 s end to end on a 2-core box), so a floor the
// code meets shows on some attempt inside it; a floor it misses fails them
// all.
const floorWindow = 30 * time.Second

// judgeFloors runs sweep — whose structural checks fail the test directly
// and which returns the timing floors it missed — until an attempt misses
// none, pausing 1, 2, then 4 s between attempts until floorWindow has
// passed. The floors are therefore best of the attempts in the window, not
// CI's single run: a floor met only some of the time passes, and every
// missed attempt is logged. Under -race the misses are logged, not judged.
func judgeFloors(t *testing.T, sweep func() (missed []string)) {
	t.Helper()
	deadline := time.Now().Add(floorWindow)
	for attempt := 1; ; attempt++ {
		missed := sweep()
		switch {
		case len(missed) == 0:
			return
		case raceEnabled:
			t.Logf("-race build, timing floors not judged: %s", strings.Join(missed, "; "))
			return
		case time.Now().After(deadline):
			t.Fatalf("timing floors missed on %d attempts over %v, last: %s",
				attempt, floorWindow, strings.Join(missed, "; "))
		}
		t.Logf("attempt %d missed %s; retrying", attempt, strings.Join(missed, "; "))
		time.Sleep(time.Second << min(attempt-1, 2))
	}
}

func TestListFlag(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E6", "E9b"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-exp", "E6"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10 RTTs") {
		t.Errorf("E6 output missing claim check:\n%s", out)
	}
}

func TestExperimentSubset(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-exp", "E8, E8b"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E8:") || !strings.Contains(out, "E8b:") {
		t.Errorf("subset output:\n%s", out)
	}
}

// TestE4BlocksMatchCommittedTables: the NoCDN experiments run at fixed
// seeds, so their output is the E4–E4d blocks of bench_output_tables.txt
// byte for byte.
func TestE4BlocksMatchCommittedTables(t *testing.T) {
	tables, err := os.ReadFile("../../bench_output_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(tables), "== E4: ")
	end := strings.Index(string(tables), "== E5: ")
	if start < 0 || end < start {
		t.Fatal("bench_output_tables.txt has no E4..E5 span")
	}
	out, err := captureStdout(t, func() error { return run([]string{"-exp", "E4,E4b,E4c,E4d"}) })
	if err != nil {
		t.Fatal(err)
	}
	if want := string(tables[start:end]); out != want {
		t.Fatalf("E4–E4d output differs from bench_output_tables.txt:\n--- got\n%s--- want\n%s", out, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}
