// Command perfbench is the repository's benchmark: one process drives
// one named workload through the public entry points of the task
// server, the job service and the shard coordinator, checks every
// computed value against a serial reference, and prints its metrics.
//
//	bash perfbench/run.sh --workload grid-wire --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced run.  NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params are a run's settings; every run prints them.
type params struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Scale      string  `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"goVersion"`

	Clients     int    `json:"clients"`
	Batch       int    `json:"batch"`
	SetupReps   int    `json:"setupReps"`
	IdleWait    string `json:"idleWait"`
	IdleWaitMax string `json:"idleWaitMax"`

	GridSide     int      `json:"gridSide,omitempty"`
	Restarts     int      `json:"restartsPerPass,omitempty"`
	ButterflyDim int      `json:"butterflyDim,omitempty"`
	Shards       int      `json:"shards,omitempty"`
	JobRate      float64  `json:"jobsPerSecond,omitempty"`
	Tenants      int      `json:"tenants,omitempty"`
	ZipfS        float64  `json:"zipfS,omitempty"`
	Catalog      []string `json:"catalog,omitempty"`
	DrainSeconds float64  `json:"drainSeconds,omitempty"`

	// Reconciliation tolerance of traced runs: the worker timelines
	// must cover clients × wall within this share.
	ReconcileTolerance float64 `json:"reconcileTolerance"`
}

// options is one run's configuration.
type options struct {
	params
	workdir string
	corrupt bool // flip one computed value: the correctness gate's self-test
}

// workloads maps each name to the function that runs it.
var workloads = map[string]func(*options) (*report, error){
	"grid-wire":       runGridWire,
	"grid-durable":    runGridDurable,
	"jobs-stream":     runJobsStream,
	"butterfly-shard": runButterflyShard,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parse reads the command line into options and applies the workload
// sizes of the chosen scale.
func parse(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.Workload, "workload", "", fmt.Sprintf("workload: one of %v", workloadNames()))
	fs.Int64Var(&o.Seed, "seed", 1, "input seed")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.Scale, "scale", "full", "full, or tiny for the smoke test")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for journals")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.Workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	o.Trace = *trace == 1
	o.GOMAXPROCS = runtime.GOMAXPROCS(0)
	o.NumCPU = runtime.NumCPU()
	o.GoVersion = runtime.Version()
	o.Clients, o.Batch, o.SetupReps = 2, 64, 9
	o.ReconcileTolerance = 0.05
	switch o.Scale {
	case "full":
		o.GridSide, o.ButterflyDim, o.JobRate = 512, 12, 100
	case "tiny":
		o.GridSide, o.ButterflyDim, o.JobRate = 24, 5, 100
	default:
		return nil, fmt.Errorf("unknown scale %q", o.Scale)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := workloads[o.Workload](o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	p, _ := json.Marshal(o.params)
	fmt.Fprintf(stdout, "# params %s\n", p)
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	rep.print(stdout, defs)
	res, err := rep.finish(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.Workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed\n", o.Workload)
		return 1
	}
	return 0
}

// deadline is when a run's measured passes stop starting.
func (o *options) deadline(from time.Time) time.Time {
	return from.Add(time.Duration(o.Seconds * float64(time.Second)))
}
