// Command bench is the repo's NoCDN page-view benchmark: it boots the real
// origin → peer → loader → settlement → WAL chain in one process over
// loopback HTTP, drives four seeded workloads closed-loop, checks every
// output, and prints every metric by name with its unit.
//
//	go run ./bench                      all four workloads, end-to-end table
//	go run ./bench -trace               … then a traced run of each: per-layer table
//	go run ./bench -workload page_small_mem -seed 7
//	go run ./bench -repeat 3            run-to-run spread against the bounds
//
// With -workload it runs that one workload in this process and ends its
// standard output with one JSON object (the form BENCHMARK.json's driver
// reads). Without it, each workload runs in a fresh child process so peak
// RSS and GC state are per workload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is what setup_s is measured from.
var processStart = time.Now()

// outDir holds everything the benchmark writes: results, traces, and the
// temporary state of the stack under test. It is relative to the working
// directory, which is the repository root for `go run ./bench`.
const outDir = "bench/out"

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames)+" (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "workload generator seed")
	seconds := fs.Float64("seconds", 20, "seconds of measurement per run")
	trace := fs.Bool("trace", false, "traced run: spans on, per-layer metrics (in suite mode: after the untraced run)")
	repeat := fs.Int("repeat", 1, "suite mode: run the suite this many times and report run-to-run spread against the bounds")
	scale := fs.String("scale", "full", "workload sizes: full, or smoke for a seconds-long self-test")
	fs.Parse(normalizeArgs(os.Args[1:]))
	if fs.NArg() > 0 || (*scale != "full" && *scale != "smoke") || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload != "" {
		cfg := runConfig{workload: *workload, scale: *scale, seed: *seed, seconds: *seconds, trace: *trace,
			dir: outDir, start: processStart, log: os.Stderr}
		if *trace {
			cfg.traceOut = traceFile(outDir, *workload)
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if err := writeJSON(resultFile(*workload, *trace), res); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if !runSuite(*seed, *seconds, *scale, *trace, *repeat) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// normalizeArgs lets -trace be given bare (`-trace`) or with a separate
// value (`--trace 1`, the form the acceptance driver uses); package flag
// only accepts a boolean's value after '='.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

func runWorkload(cfg runConfig) (*result, error) {
	if cfg.workload == wlControl {
		return runControlWorkload(cfg)
	}
	return runPageWorkload(cfg)
}

func resultFile(workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, "result-"+workload+"-"+kind+".json")
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// runChild runs one workload in a fresh process and reads back its result.
func runChild(workload string, seed int64, seconds float64, scale string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := resultFile(workload, traced)
	os.Remove(path)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", scale, fmt.Sprintf("-trace=%v", traced))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // a run that fails a check exits 1 but still leaves its result
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %v (child: %v)", workload, err, runErr)
	}
	var res result
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// suiteReport is what suite mode writes to bench/out/suite.json.
type suiteReport struct {
	Env     env         `json:"env"`
	Seconds float64     `json:"seconds"`
	Repeats int         `json:"repeats"`
	Runs    [][]*result `json:"runs"` // one list of results per repeat
	Spread  []spreadRow `json:"spread,omitempty"`
}

// spreadRow is one (end-to-end metric, workload) pair over the repeats.
type spreadRow struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	Median   float64 `json:"median"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// runSuite runs every workload (untraced, then traced when asked) repeat
// times. It reports whether every run was correct and every spread within
// its bound.
func runSuite(seed int64, seconds float64, scale string, traced bool, repeat int) bool {
	report := suiteReport{Seconds: seconds, Repeats: repeat}
	ok := true
	for rep := 0; rep < repeat; rep++ {
		var results []*result
		for _, wl := range workloadNames {
			modes := []bool{false}
			if traced {
				modes = append(modes, true)
			}
			for _, tr := range modes {
				res, err := runChild(wl, seed, seconds, scale, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					ok = false
					continue
				}
				ok = ok && res.Correct
				results = append(results, res)
				report.Env = res.Env
			}
		}
		report.Runs = append(report.Runs, results)
	}
	if repeat > 1 {
		report.Spread = spreads(report.Runs)
		fmt.Printf("\n== run-to-run spread over %d repeats (seed %d) ==\n", repeat, seed)
		fmt.Printf("  %-18s %-24s %12s %12s %12s %8s %8s\n", "metric", "workload", "median", "min", "max", "spread", "bound")
		for _, row := range report.Spread {
			flag := ""
			if !row.Within && row.Metric == "setup_s" {
				flag = "  exceeds bound (reported, not judged: set-up runs once per run)"
			} else if !row.Within {
				flag = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-18s %-24s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n",
				row.Metric, row.Workload, row.Median, row.Min, row.Max, row.Spread*100, row.Bound*100, flag)
		}
	}
	path := filepath.Join(outDir, "suite.json")
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Printf("\nwrote %s; all runs correct and within bounds: %v\n", path, ok)
	return ok
}

// spreads computes, per (end-to-end metric, workload), the median, range and
// spread of the untraced runs across repeats.
func spreads(runs [][]*result) []spreadRow {
	var rows []spreadRow
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			var vals []float64
			for _, rep := range runs {
				for _, res := range rep {
					if v, ok := res.EndToEnd[d.Name]; ok && res.Workload == wl && !res.Traced {
						vals = append(vals, v)
					}
				}
			}
			if len(vals) < 2 {
				continue
			}
			s := sortedCopy(vals)
			sp := spread(vals)
			rows = append(rows, spreadRow{Metric: d.Name, Workload: wl, Median: median(vals),
				Min: s[0], Max: s[len(s)-1], Spread: sp, Bound: d.Bound, Within: sp <= d.Bound})
		}
	}
	return rows
}
