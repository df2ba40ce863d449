package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// check is one output check; a run with any failed check is not correct.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one run of one workload produces.
type result struct {
	Workload  string  `json:"workload"`
	Scale     string  `json:"scale"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Checks    []check `json:"checks"`
	// EndToEnd and PerLayer hold the metrics by name. A traced run fills
	// both, but its end-to-end values carry the tracing overhead and are
	// never reported: end-to-end numbers come from the untraced run.
	EndToEnd map[string]float64 `json:"endToEnd"`
	PerLayer map[string]float64 `json:"perLayer,omitempty"`
	// Samples is the sample count behind each percentile metric. Omitted
	// names a metric that was not emitted, with the reason.
	Samples map[string]int    `json:"samples"`
	Omitted map[string]string `json:"omitted,omitempty"`
	Env     env               `json:"env"`
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.workload, Scale: cfg.scale, Seconds: cfg.seconds, Traced: cfg.trace,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Samples: map[string]int{}, Omitted: map[string]string{},
	}
}

// target is the map a metric name belongs in.
func (r *result) target(name string) map[string]float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return r.EndToEnd
		}
	}
	return r.PerLayer
}

func (r *result) set(name string, v float64) { r.target(name)[name] = v }

// setPercentile emits the q-quantile of samples (scaled), or omits the
// metric with the reason when the sample cannot support it. The sample
// count is recorded either way.
func (r *result) setPercentile(name string, samples []float64, q, scale float64) {
	r.Samples[name] = len(samples)
	v, ok := percentile(sortedCopy(samples), q)
	if !ok {
		r.Omitted[name] = fmt.Sprintf("%d samples; p%.0f needs %d (%d beyond it)",
			len(samples), q*100, samplesNeeded(q), minBeyond)
		return
	}
	r.set(name, v*scale)
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// finish settles Correct: every check passed, nothing failed, every
// end-to-end metric is present, and every value is a finite number.
func (r *result) finish() {
	r.Correct = r.Failed == 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
	for _, d := range endToEnd {
		if _, ok := r.EndToEnd[d.Name]; !ok {
			r.Correct = false
		}
	}
	for _, m := range []map[string]float64{r.EndToEnd, r.PerLayer} {
		for name, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.Omitted[name] = "not a finite number"
				delete(m, name)
				r.Correct = false
			}
		}
	}
}

// print writes the human-readable tables: every metric by name with its
// unit, then the checks.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d, %gs, scale %s, traced=%v) ==\n", r.Workload, r.Env.Seed, r.Seconds, r.Scale, r.Traced)
	fmt.Fprintf(w, "   %s; %s; %d load client(s) in the saturation phase\n", r.Env.Network, r.Env.LoadModel, r.Env.Clients)
	table := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(w, "-- %s --\n", title)
		for _, d := range defs {
			note := ""
			if n, ok := r.Samples[d.Name]; ok {
				note = fmt.Sprintf("  (n=%d)", n)
			}
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", d.Name, v, d.Unit, note)
			} else if why, ok := r.Omitted[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14s %-6s  omitted: %s\n", d.Name, "n/a", d.Unit, why)
			} else {
				fmt.Fprintf(w, "  %-34s %14s %-6s  does not apply to this workload\n", d.Name, "-", d.Unit)
			}
		}
	}
	if !r.Traced {
		table("end-to-end (untraced run)", endToEnd, r.EndToEnd)
	} else {
		table("per-layer (traced run)", perLayer, r.PerLayer)
	}
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			failed++
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "-- %d/%d output checks passed; attempted %d, failed %d; correct=%v --\n",
		len(r.Checks)-failed, len(r.Checks), r.Attempted, r.Failed, r.Correct)
}

// contractLine is the last line of standard output: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one. A per-layer
// metric that does not apply to the workload, or that its sample could not
// support, reads 0 there (the table above says which and why).
func (r *result) contractLine() map[string]any {
	defs, vals := endToEnd, r.EndToEnd
	if r.Traced {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !r.Traced {
			continue // finish() already marked the run incorrect
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
