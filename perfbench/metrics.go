package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order.  Each
// workload reports every one of them (see NOTES.md for the per-workload
// meaning of job and recovery).
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"call_p90_us", "us"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"eligible_area_ratio", "ratio"},
	{"recovery_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run.  Every workload reports
// every one of them; a layer the workload bypasses reads 0.  Per-task
// and per-ktask figures divide by the tasks the traced passes completed.
var perLayer = []metricDef{
	{"transport.self_s", "s/ktask"},
	{"transport.req_bytes", "B/task"},
	{"transport.resp_bytes", "B/task"},
	{"icserver.handler_s", "s/ktask"},
	{"icserver.handler_p50_us", "us"},
	{"icserver.handler_p99_us", "us"},
	{"icserver.call_s", "s/ktask"},
	{"icserver.lock_hold_mean_us", "us"},
	{"sched.ns_per_task", "ns"},
	{"wal.fsyncs", "1/ktask"},
	{"wal.fsync_s", "s/ktask"},
	{"wal.fsync_p99_us", "us"},
	{"wal.append_bytes_per_task", "B/task"},
	{"wal.replay_records", "count"},
	{"client.calls", "1/ktask"},
	{"client.call_p99_us", "us"},
	{"client.tasks_per_call", "tasks/call"},
	{"client.idle_polls", "1/ktask"},
	{"client.retries", "1/ktask"},
	{"client.idle_s", "s/ktask"},
	{"client.self_s", "s/ktask"},
	{"compute.self_s", "s/ktask"},
	{"jobs.submit_p50_us", "us"},
	{"jobs.start_p50_ms", "ms"},
	{"jobs.exec_p50_ms", "ms"},
	{"jobs.start_p50_ms.hit", "ms"},
	{"jobs.start_p50_ms.miss", "ms"},
	{"jobs.exec_p50_ms.hit", "ms"},
	{"jobs.exec_p50_ms.miss", "ms"},
	{"jobs.refused", "count"},
	{"jobs.gen_lag_ms", "ms"},
	{"schedcache.hit_ratio", "ratio"},
	{"schedcache.cold_us", "us"},
	{"schedcache.warm_us", "us"},
	{"shard.arcs_forwarded", "count/pass"},
	{"shard.arcs_dedup", "count/pass"},
	{"shard.steal_ratio", "ratio"},
	{"shard.idle_polls", "1/ktask"},
	{"runtime.alloc_bytes_per_task", "B/task"},
	{"runtime.gc_pause_s", "s/ktask"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.reconcile_ratio", "ratio"},
}

// quantile is an exact sample quantile: linear interpolation between
// the order statistics of the raw samples (no buckets).  sorted must be
// ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// pct is one reported percentile with its sample support.
type pct struct {
	value  float64
	n      int // samples
	beyond int // samples strictly above value
}

// percentile computes the q-quantile of samples (which it sorts) along
// with the sample count and how many samples lie beyond it.  An empty
// sample set yields zero support and a zero value.
func percentile(samples []float64, q float64) pct {
	if len(samples) == 0 {
		return pct{}
	}
	sort.Float64s(samples)
	v := quantile(samples, q)
	i := sort.Search(len(samples), func(i int) bool { return samples[i] > v })
	return pct{value: v, n: len(samples), beyond: len(samples) - i}
}

// medianOf is the median over groups (passes or time windows) of each
// group's q-quantile, a tail estimate that one disturbed group cannot
// move.  Consecutive groups merge until each holds enough samples to
// put ten beyond its quantile; a short remainder joins the last group.
// The support counts every sample and, per group, those beyond its
// quantile.
func medianOf(groups [][]float64, q float64) pct {
	minN := int(math.Ceil(10/(1-q) - 1e-9))
	var merged [][]float64
	var cur []float64
	for _, g := range groups {
		cur = append(cur, g...)
		if len(cur) >= minN {
			merged = append(merged, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if n := len(merged); n > 0 {
			merged[n-1] = append(merged[n-1], cur...)
		} else {
			merged = append(merged, cur)
		}
	}
	var per []pct
	for _, g := range merged {
		per = append(per, percentile(g, q))
	}
	return combine(per)
}

// combine is the median of per-group percentiles, with their summed
// support.
func combine(per []pct) pct {
	var vals []float64
	out := pct{}
	for _, p := range per {
		vals = append(vals, p.value)
		out.n += p.n
		out.beyond += p.beyond
	}
	out.value = median(vals)
	return out
}

// windows groups samples by the time window (of width ns) of their
// timestamp, counted from the earliest one.
func windows(at []int64, samples []float64, width int64) [][]float64 {
	if len(at) == 0 {
		return nil
	}
	lo := at[0]
	for _, t := range at {
		lo = min(lo, t)
	}
	var out [][]float64
	for i, t := range at {
		k := int((t - lo) / width)
		for len(out) <= k {
			out = append(out, nil)
		}
		out[k] = append(out[k], samples[i])
	}
	return out
}

// median of samples (sorted in place); 0 when empty.
func median(samples []float64) float64 { return percentile(samples, 0.5).value }

// report collects one run's metrics, the support of each percentile,
// and the correctness tallies.
type report struct {
	values    map[string]float64
	support   map[string]pct
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, support: map[string]pct{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPct records a percentile metric with its support.
func (r *report) setPct(name string, p pct) {
	r.values[name] = p.value
	r.support[name] = p
}

// fail records failed operations and why.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	r.problems = append(r.problems, fmt.Sprintf("%d × ", n)+fmt.Sprintf(format, args...))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish selects the metrics of the run's mode and checks that each one
// was measured and is finite.
func (r *report) finish(defs []metricDef) (result, error) {
	res := result{Correct: r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable table: every metric of defs, the
// failure ratio, and each percentile's sample support.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		line := fmt.Sprintf("%-30s %16.6g %-10s", d.name, r.values[d.name], d.unit)
		if p, ok := r.support[d.name]; ok {
			line += fmt.Sprintf(" (n=%d, %d beyond)", p.n, p.beyond)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %16.6g %-10s (%d of %d operations)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}
