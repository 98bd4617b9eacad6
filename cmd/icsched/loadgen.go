package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"icsched/internal/benchjson"
	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/exec"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
)

// loadgenResult is one (family, protocol, batch) cell of the throughput
// benchmark: a full fleet execution of the dag through the real HTTP
// server, with the allocation-path latency read back from the server's
// own histograms.
type loadgenResult struct {
	Family   string `json:"family"`
	Size     int    `json:"size"`
	Nodes    int    `json:"nodes"`
	Protocol string `json:"protocol"` // "single" or "batched"
	// Batch is the client-side grant cap (0 under the single protocol).
	Batch       int     `json:"batch"`
	WallMillis  float64 `json:"wallMillis"`
	TasksPerSec float64 `json:"tasksPerSec"`
	// AllocRequests counts /task + /tasks requests; GrantsPerRequest is
	// the mean tasks granted per batched request (0 when single).
	AllocRequests    int     `json:"allocRequests"`
	GrantsPerRequest float64 `json:"grantsPerRequest"`
	// Allocate-endpoint handler latency and scheduler lock-hold time,
	// from the server's histograms (linear bucket interpolation).
	AllocP50Micros    float64 `json:"allocP50Micros"`
	AllocP99Micros    float64 `json:"allocP99Micros"`
	LockHoldP50Micros float64 `json:"lockHoldP50Micros"`
	LockHoldP99Micros float64 `json:"lockHoldP99Micros"`
	Reissues          int     `json:"reissues"`
	Quarantined       int     `json:"quarantined"`
	// Resyncs counts stale-epoch rejections the fleet recovered from
	// mid-run (409 → re-read epoch → re-send); nonzero only when the
	// server restarted from its journal during the cell.
	Resyncs int `json:"resyncs"`
}

// loadgenFile is the BENCH_throughput.json document.
type loadgenFile struct {
	Clients int             `json:"clients"`
	GoMaxP  int             `json:"gomaxprocs"`
	Smoke   bool            `json:"smoke"`
	Results []loadgenResult `json:"results"`
}

// loadgenConfig parameterizes one harness run (split out so tests drive
// runLoadgen directly).
type loadgenConfig struct {
	clients    int
	batches    []int
	smoke      bool
	minSpeedup float64 // wavefront batched/single floor; 0 disables
}

// loadgenFamily is one dag family of the benchmark, sized for load
// generation rather than figure drawing.
type loadgenFamily struct {
	name  string
	size  int
	build func(size int) (*dag.Dag, []dag.NodeID)
}

// loadgenFamilies returns the paper's three computation families at
// benchmark sizes.  The 32×32 wavefront is kept at full size even in
// smoke runs: it is the cell the CI regression guard measures.
func loadgenFamilies(smoke bool) []loadgenFamily {
	fftSize, prefixSize := 6, 64
	if smoke {
		fftSize, prefixSize = 5, 32
	}
	return []loadgenFamily{
		{"wavefront", 32, func(s int) (*dag.Dag, []dag.NodeID) {
			return mesh.Grid(s, s), mesh.GridDiagonalNonsinks(s, s)
		}},
		{"fftconv", fftSize, func(s int) (*dag.Dag, []dag.NodeID) {
			return butterfly.Network(s), butterfly.Nonsinks(s)
		}},
		{"prefix", prefixSize, func(s int) (*dag.Dag, []dag.NodeID) {
			return prefix.Network(s), prefix.Nonsinks(s)
		}},
	}
}

// loadgenReference computes the ground-truth values with the serial
// in-process executor (exec.Run, one worker) — the fleet results must
// match it bit for bit.
func loadgenReference(g *dag.Dag, order []dag.NodeID) ([]uint64, error) {
	rank, err := exec.RankFromOrder(g, order)
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, g.NumNodes())
	if _, err := exec.Run(g, rank, 1, func(v dag.NodeID) error {
		vals[v] = difftest.NodeValue(g, v, vals)
		return nil
	}); err != nil {
		return nil, err
	}
	return vals, nil
}

// runCell executes one dag through the HTTP server with a fleet of
// `clients` concurrent clients (batched when batch > 0) and measures
// throughput plus the server-side allocation latency distribution.
func runCell(fam loadgenFamily, clients, batch int, ref []uint64) (loadgenResult, error) {
	g, nonsinks := fam.build(fam.size)
	order := sched.Complete(g, nonsinks)
	srv := icserver.New(g, heur.Static("IC-OPTIMAL", order),
		icserver.WithLease(time.Minute))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	vals := make([]uint64, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		vals[v] = difftest.NodeValue(g, v, vals)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// One pooled transport for the fleet: http.DefaultClient keeps only
	// two idle connections per host, so 16 hammering clients would spend
	// the benchmark re-dialing TCP instead of measuring the protocol.
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: 2 * clients,
	}}
	defer httpc.CloseIdleConnections()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	stats := make([]icserver.Stats, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Aggressive idle polling (both protocols): the benchmark
			// measures protocol cost per task, and the default 250ms idle
			// backoff ceiling would swamp it with sleep time.
			cl := &icserver.Client{
				BaseURL:     ts.URL,
				HTTP:        httpc,
				Compute:     compute,
				Batch:       batch,
				IdleWait:    100 * time.Microsecond,
				IdleWaitMax: time.Millisecond,
				ID:          fmt.Sprintf("loadgen-%d", c),
				// Seeds derive from (cell family, client): the bare c+1
				// collided across cells, synchronizing their backoff.
				Seed: derivedSeed(fam.name, c),
			}
			stats[c], errs[c] = cl.Run(ctx)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return loadgenResult{}, fmt.Errorf("%s: client %d: %w", fam.name, c, err)
		}
	}
	if !srv.Finished() {
		return loadgenResult{}, fmt.Errorf("%s: server not finished after fleet drained", fam.name)
	}
	st := srv.Status()
	if st.Completed != g.NumNodes() {
		return loadgenResult{}, fmt.Errorf("%s: completed %d of %d tasks", fam.name, st.Completed, g.NumNodes())
	}
	for v := range ref {
		if vals[v] != ref[v] {
			return loadgenResult{}, fmt.Errorf("%s: node %d computed %#x, want %#x (exec.Run reference)",
				fam.name, v, vals[v], ref[v])
		}
	}

	// Read the allocate-path distributions back off the server's own
	// registry; the handles are shared with the handlers, so the help
	// strings and buckets here are ignored.
	reg := srv.Metrics()
	allocPath := "/task"
	if batch > 0 {
		allocPath = "/tasks"
	}
	allocLat := reg.Histogram(fmt.Sprintf("icserver_request_seconds{path=%q}", allocPath), "", nil)
	lockHold := reg.Histogram("icserver_lock_hold_seconds", "", nil)
	requests := int(reg.Counter(fmt.Sprintf("icserver_http_requests_total{path=%q}", allocPath), "").Value())
	grants := 0.0
	if batch > 0 {
		grantHist := reg.Histogram("icserver_grants_per_request", "", nil)
		if n := grantHist.Count(); n > 0 {
			grants = grantHist.Sum() / float64(n)
		}
	}
	protocol := "single"
	if batch > 0 {
		protocol = "batched"
	}
	resyncs := 0
	for _, cst := range stats {
		resyncs += cst.Resyncs
	}
	return loadgenResult{
		Family:           fam.name,
		Size:             fam.size,
		Nodes:            g.NumNodes(),
		Protocol:         protocol,
		Batch:            batch,
		WallMillis:       float64(wall.Microseconds()) / 1000,
		TasksPerSec:      float64(g.NumNodes()) / wall.Seconds(),
		AllocRequests:    requests,
		GrantsPerRequest: grants,
		// QuantileOr: an empty histogram yields the NaN sentinel, which
		// does not marshal to JSON — report 0 instead.
		AllocP50Micros:    1e6 * allocLat.QuantileOr(0.50, 0),
		AllocP99Micros:    1e6 * allocLat.QuantileOr(0.99, 0),
		LockHoldP50Micros: 1e6 * lockHold.QuantileOr(0.50, 0),
		LockHoldP99Micros: 1e6 * lockHold.QuantileOr(0.99, 0),
		Reissues:          st.Reissues,
		Quarantined:       st.Quarantined,
		Resyncs:           resyncs,
	}, nil
}

// runLoadgen executes the full benchmark matrix — every family under the
// single-task protocol and under each batched grant cap — and enforces
// the regression floor: batched throughput on the wavefront must beat
// the single-task baseline recorded in the same run by minSpeedup.
func runLoadgen(cfg loadgenConfig) (loadgenFile, error) {
	doc := loadgenFile{Clients: cfg.clients, GoMaxP: runtime.GOMAXPROCS(0), Smoke: cfg.smoke}
	var wavefrontSingle, wavefrontBatchedBest float64
	for _, fam := range loadgenFamilies(cfg.smoke) {
		g, nonsinks := fam.build(fam.size)
		ref, err := loadgenReference(g, sched.Complete(g, nonsinks))
		if err != nil {
			return doc, fmt.Errorf("loadgen: %s reference: %w", fam.name, err)
		}
		for _, batch := range append([]int{0}, cfg.batches...) {
			res, err := runCell(fam, cfg.clients, batch, ref)
			if err != nil {
				return doc, fmt.Errorf("loadgen: %w", err)
			}
			doc.Results = append(doc.Results, res)
			if fam.name == "wavefront" {
				if batch == 0 {
					wavefrontSingle = res.TasksPerSec
				} else if res.TasksPerSec > wavefrontBatchedBest {
					wavefrontBatchedBest = res.TasksPerSec
				}
			}
		}
	}
	if cfg.minSpeedup > 0 && wavefrontBatchedBest < cfg.minSpeedup*wavefrontSingle {
		return doc, fmt.Errorf("loadgen: wavefront batched throughput %.0f tasks/s < %.1f× single-task baseline %.0f tasks/s",
			wavefrontBatchedBest, cfg.minSpeedup, wavefrontSingle)
	}
	return doc, nil
}

// cmdLoadgen is the throughput benchmark harness: N concurrent clients ×
// {single, batched×caps} × the paper's dag families (wavefront, fftconv,
// prefix) through the real HTTP server, every cell checked bit-identical
// against the serial exec.Run reference, written to BENCH_throughput.json.
// -minspeedup turns the run into a CI regression guard.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	out := fs.String("out", "", "output JSON file (- for stdout; default BENCH_throughput.json, stream mode BENCH_stream.json)")
	clients := fs.Int("clients", 16, "concurrent clients per cell (stream mode: fleet size)")
	smoke := fs.Bool("smoke", false, "CI smoke sizes (one batched cap, smaller fftconv/prefix)")
	minSpeedup := fs.Float64("minspeedup", 0, "fail unless wavefront batched ≥ this × single-task tasks/sec (0 = off)")
	stream := fs.Bool("stream", false, "Poisson job-arrival stream mode through the multi-tenant job service")
	relaxedMode := fs.Bool("relaxed", false, "relaxation sweep mode: in-process quality/throughput frontier of the lock-free k-relaxed core vs the locked path, written to BENCH_relaxed.json")
	zipfMode := fs.Bool("zipf", false, "schedule-cache mode: Zipf-distributed raw-payload job mix through the cached job service, written to BENCH_cache.json")
	shardMode := fs.Bool("shards", false, "sharded-coordinator mode: journaled single server vs K-shard coordinator on one large wavefront, written to BENCH_shard.json")
	zipfJobs := fs.Int("zipfjobs", 0, "zipf mode: total jobs (default 240; smoke 80)")
	minHitRate := fs.Float64("minhitrate", 0, "zipf mode: fail if cache hit rate below this (0 = off)")
	minAnalysisSpeedup := fs.Float64("minanalysisspeedup", 0, "zipf mode: fail if warm/cold analysis speedup below this (0 = off)")
	maxReplayP99 := fs.Float64("maxreplayp99ratio", 0, "zipf mode: fail if replay grant p99 exceeds this × static grant p99 (0 = off)")
	tenants := fs.Int("tenants", 4, "stream mode: submitting tenants")
	jobsPer := fs.Int("jobs", 12, "stream mode: jobs per tenant")
	rate := fs.Float64("rate", 25, "stream mode: mean Poisson arrivals/sec per tenant (0 = back-to-back)")
	seed := fs.Int64("seed", 1, "stream mode: arrival-process seed")
	maxSkew := fs.Float64("maxskew", 2, "stream mode: fail if max/min completed-jobs ratio exceeds this (0 = off)")
	var batches intsFlag
	fs.Var(&batches, "batches", "comma-separated batched grant caps (default 4,16,64; smoke 16)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 {
		return fmt.Errorf("loadgen: %d clients", *clients)
	}
	if *stream {
		if *tenants < 1 || *jobsPer < 1 {
			return fmt.Errorf("loadgen: stream needs ≥1 tenant and ≥1 job per tenant")
		}
		if *out == "" {
			*out = "BENCH_stream.json"
		}
		doc, err := runStream(streamConfig{
			clients: *clients, tenants: *tenants, jobsPerTenant: *jobsPer,
			rate: *rate, seed: *seed, maxSkew: *maxSkew, smoke: *smoke,
		})
		// Write whatever was measured even on failure, for CI diagnosis.
		if werr := writeStream(doc, *out); werr != nil && err == nil {
			err = werr
		}
		return err
	}
	if *shardMode {
		if *out == "" {
			*out = "BENCH_shard.json"
		}
		doc, err := runShardBench(shardBenchConfig{
			clients:    *clients,
			smoke:      *smoke,
			minSpeedup: *minSpeedup,
		})
		// Write whatever was measured even when the speedup floor failed,
		// so CI can upload the artifact for diagnosis.
		if len(doc.Results) > 0 {
			if werr := writeShard(doc, *out); werr != nil && err == nil {
				err = werr
			}
		}
		return err
	}
	if *zipfMode {
		if *out == "" {
			*out = "BENCH_cache.json"
		}
		n := *zipfJobs
		if n == 0 {
			n = 240
			if *smoke {
				n = 80
			}
		}
		doc, err := runZipf(zipfConfig{
			jobs: n, workers: *clients, seed: *seed, smoke: *smoke,
			minHitRate:        *minHitRate,
			minAnalysisFactor: *minAnalysisSpeedup,
			maxReplayP99Ratio: *maxReplayP99,
		})
		// Write whatever was measured even on a guard failure, for CI
		// diagnosis.
		if werr := writeZipf(doc, *out); werr != nil && err == nil {
			err = werr
		}
		return err
	}
	if *relaxedMode {
		if *out == "" {
			*out = "BENCH_relaxed.json"
		}
		sweep := relaxedSweepConfig{
			clients:    []int{4, *clients},
			ks:         []int{0, 1, 2, 4, 8, 16},
			batch:      8,
			smoke:      *smoke,
			minSpeedup: *minSpeedup,
		}
		if *clients <= 4 {
			sweep.clients = []int{*clients}
		}
		if *smoke {
			sweep.clients = []int{*clients}
			sweep.ks = []int{0, 1, 4, 16}
		}
		doc, err := runRelaxedSweep(sweep)
		// Write whatever was measured even when the frontier guard failed,
		// so CI can upload the artifact for diagnosis.
		if len(doc.Results) > 0 {
			if werr := writeRelaxed(doc, *out); werr != nil && err == nil {
				err = werr
			}
		}
		return err
	}
	if *out == "" {
		*out = "BENCH_throughput.json"
	}
	if len(batches) == 0 {
		batches = intsFlag{4, 16, 64}
		if *smoke {
			batches = intsFlag{16}
		}
	}
	for _, b := range batches {
		if b < 1 {
			return fmt.Errorf("loadgen: batch cap %d < 1", b)
		}
	}

	doc, err := runLoadgen(loadgenConfig{
		clients:    *clients,
		batches:    batches,
		smoke:      *smoke,
		minSpeedup: *minSpeedup,
	})
	// Write whatever was measured even when the speedup floor failed, so
	// CI can upload the artifact for diagnosis.
	if len(doc.Results) > 0 {
		if werr := writeLoadgen(doc, *out); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func writeLoadgen(doc loadgenFile, out string) error {
	if err := benchjson.Write(out, doc, "clients", "gomaxprocs", "results"); err != nil {
		return err
	}
	fmt.Printf("%-10s %6s %-8s %6s %10s %12s %10s %10s %12s\n",
		"FAMILY", "NODES", "PROTO", "BATCH", "WALL-MS", "TASKS/SEC", "REQUESTS", "GRANTS/RQ", "LOCK-P99-US")
	for _, r := range doc.Results {
		fmt.Printf("%-10s %6d %-8s %6d %10.1f %12.0f %10d %10.2f %12.2f\n",
			r.Family, r.Nodes, r.Protocol, r.Batch, r.WallMillis, r.TasksPerSec,
			r.AllocRequests, r.GrantsPerRequest, r.LockHoldP99Micros)
	}
	if out != "-" {
		fmt.Printf("wrote %s (%d cells, %d clients)\n", out, len(doc.Results), doc.Clients)
	}
	return nil
}

func writeRelaxed(doc relaxedFile, out string) error {
	if err := benchjson.Write(out, doc, "gomaxprocs", "note", "speedup",
		"lockedTasksPerSec", "relaxedTasksPerSec", "results"); err != nil {
		return err
	}
	fmt.Printf("%-10s %6s %8s %8s %6s %10s %12s %10s %10s\n",
		"FAMILY", "NODES", "CLIENTS", "RELAXED", "BATCH", "WALL-MS", "TASKS/SEC", "WSR", "GAP")
	for _, r := range doc.Results {
		fmt.Printf("%-10s %6d %8d %8d %6d %10.1f %12.0f %10.4f %10.4f\n",
			r.Family, r.Nodes, r.Clients, r.Relaxed, r.Batch, r.WallMillis,
			r.TasksPerSec, r.WorstStepRatio, r.QualityGap)
	}
	fmt.Printf("k=1 bit-identical: %v; frontier at max clients: relaxed %.0f vs locked %.0f tasks/s (%.2fx)\n",
		doc.K1BitIdentical, doc.RelaxedTasksPerSec, doc.LockedTasksPerSec, doc.Speedup)
	if out != "-" {
		fmt.Printf("wrote %s (%d cells)\n", out, len(doc.Results))
	}
	return nil
}

// intsFlag parses a comma-separated int list.
type intsFlag []int

func (f *intsFlag) String() string {
	parts := make([]string, len(*f))
	for i, v := range *f {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (f *intsFlag) Set(s string) error {
	*f = nil
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad batch size %q", part)
		}
		*f = append(*f, v)
	}
	return nil
}
