package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs one workload at tiny scale and returns the printed
// params and result line.
func runTiny(t *testing.T, workload string, trace string) (map[string]any, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.3",
		"--trace", trace, "--scale", "tiny", "--workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, &stdout)
	}
	var params map[string]any
	for _, l := range lines {
		if p, ok := strings.CutPrefix(l, "# params "); ok {
			if err := json.Unmarshal([]byte(p), &params); err != nil {
				t.Fatalf("%s: params line: %v", workload, err)
			}
		}
	}
	if params == nil {
		t.Fatalf("%s: no params line\n%s", workload, &stdout)
	}
	return params, res
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at tiny
// sizes, untraced and traced, and checks that each run is correct,
// emits exactly the declared metrics with their declared units, and
// records the environment and workload parameters.
func TestEveryMetricEmitted(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, mode := range []struct {
			trace string
			defs  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			params, res := runTiny(t, w.Name, mode.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v failed=%d attempted=%d", w.Name, mode.trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json declares %d", w.Name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s --trace %s: metric %s missing", w.Name, mode.trace, d.Name)
					continue
				}
				if m.Unit == "" || m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if mode.trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			for _, key := range []string{"gomaxprocs", "nproc", "goVersion", "seed", "workload", "clients", "batch"} {
				if _, ok := params[key]; !ok {
					t.Errorf("%s: params line lacks %s", w.Name, key)
				}
			}
		}
	}
}

// TestCorruptionTripsGate flips one computed value in every workload
// and requires the correctness gate to fail the run.
func TestCorruptionTripsGate(t *testing.T) {
	for _, name := range workloadNames() {
		o, err := parse([]string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--scale", "tiny",
			"--workdir", t.TempDir()}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		o.corrupt = true
		rep, err := workloads[name](o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := rep.finish(endToEnd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted value passed the gate: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestBadArguments checks that a bad command line exits non-zero
// without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "grid-wire", "--trace", "2"},
		{"--workload", "grid-wire", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, &stdout)
		}
	}
}

// TestQuantiles pins the exact quantiles (linear interpolation between
// order statistics) and their support.
func TestQuantiles(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 3, 2}, {0, 1, 4}, {1, 5, 0}, {0.9, 4.6, 1}, {0.25, 2, 3}} {
		p := percentile(append([]float64(nil), s...), c.q)
		if p.value != c.want || p.n != 5 || p.beyond != c.beyond {
			t.Errorf("q=%v: got %+v, want value %v beyond %d", c.q, p, c.want, c.beyond)
		}
	}
	// Groups too small for ten samples beyond the quantile merge with
	// their successors; a short remainder joins the last group.
	ramp := func(lo, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(lo + i)
		}
		return out
	}
	for _, c := range []struct {
		groups [][]float64
		want   float64
		n      int
	}{
		{[][]float64{ramp(0, 100), ramp(0, 100), ramp(0, 100)}, 89.1, 300},
		{[][]float64{ramp(0, 50), ramp(50, 50), ramp(0, 100)}, 89.1, 200},
		{[][]float64{ramp(0, 100), ramp(100, 30)}, 116.1, 130},
		{[][]float64{ramp(0, 20)}, 17.1, 20},
	} {
		got := medianOf(c.groups, 0.9)
		if math.Abs(got.value-c.want) > 1e-9 || got.n != c.n {
			t.Errorf("medianOf: got %+v, want %v over %d samples", got, c.want, c.n)
		}
	}
}
