package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/benchjson"
	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/jobs"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
)

// Stream mode: instead of one dag at a time, a Poisson stream of job
// submissions from several tenants flows through the multi-tenant job
// service (internal/jobs) while a shared fleet executes them — the
// production shape the ROADMAP aims at.  Mid-stream the service is
// killed and recovered from its journals to prove the crash story
// composes across jobs.  Every job is checked bit-identical against the
// serial exec.Run reference, and per-tenant latency percentiles plus a
// fairness (starvation) guard land in BENCH_stream.json.

// derivedSeed derives a per-worker jitter seed from (tenant, client) by
// FNV-1a, so fleets serving different tenants (or the same client count
// reused across concurrent jobs) never share jitter sequences — the
// bare per-process counter collided exactly there.  Always nonzero, so
// the client never falls back to that counter.
func derivedSeed(tenant string, client int) int64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime
	}
	h ^= 0xff // separator: ("ab",0x01...) never aliases ("a",0xb01...)
	h *= prime
	for i := 0; i < 8; i++ {
		h ^= uint64(client>>(8*i)) & 0xff
		h *= prime
	}
	s := int64(h >> 1) // non-negative
	if s == 0 {
		s = 1
	}
	return s
}

// streamConfig parameterizes one stream-mode run.
type streamConfig struct {
	clients       int
	tenants       int
	jobsPerTenant int
	rate          float64 // mean Poisson arrivals per second per tenant
	seed          int64
	maxSkew       float64 // fail if max/min completed-jobs ratio exceeds this; 0 disables
	smoke         bool
}

// streamTenantResult is one tenant's slice of BENCH_stream.json.
type streamTenantResult struct {
	Tenant    string `json:"tenant"`
	Weight    int    `json:"weight"`
	Submitted int    `json:"submitted"`
	Completed int    `json:"completed"`
	// Submit-to-finish latency percentiles over this tenant's jobs,
	// exact (sorted sample), surviving the mid-stream recovery because
	// the manifest keeps submit timestamps.
	LatencyP50Millis float64 `json:"latencyP50Millis"`
	LatencyP99Millis float64 `json:"latencyP99Millis"`
}

// streamFile is the BENCH_stream.json document.
type streamFile struct {
	Clients          int                  `json:"clients"`
	Tenants          int                  `json:"tenants"`
	JobsPerTenant    int                  `json:"jobsPerTenant"`
	Smoke            bool                 `json:"smoke"`
	Seed             int64                `json:"seed"`
	Jobs             int                  `json:"jobs"`
	Finished         int                  `json:"finished"`
	WallMillis       float64              `json:"wallMillis"`
	JobsPerSec       float64              `json:"jobsPerSec"`
	MidStreamRecover bool                 `json:"midStreamRecover"`
	Resyncs          int                  `json:"resyncs"`
	FairnessRatio    float64              `json:"fairnessRatio"`
	PerTenant        []streamTenantResult `json:"perTenant"`
}

// streamFamilies is the per-tenant submission mix (cycled in order) —
// the three paper families at stream-friendly sizes: many small jobs,
// not one big dag.
func streamFamilies(smoke bool) []loadgenFamily {
	wf := func(s int) (*dag.Dag, []dag.NodeID) { return mesh.Grid(s, s), mesh.GridDiagonalNonsinks(s, s) }
	fft := func(d int) (*dag.Dag, []dag.NodeID) { return butterfly.Network(d), butterfly.Nonsinks(d) }
	pfx := func(n int) (*dag.Dag, []dag.NodeID) { return prefix.Network(n), prefix.Nonsinks(n) }
	if smoke {
		return []loadgenFamily{{"wavefront", 6, wf}, {"fftconv", 3, fft}, {"prefix", 16, pfx}}
	}
	return []loadgenFamily{{"wavefront", 8, wf}, {"fftconv", 4, fft}, {"prefix", 32, pfx}}
}

// streamRegistry is the harness-side model: per-job dags and FNV value
// slices the fleet's Compute hashes into, plus cached serial references
// per (family, size).
type streamRegistry struct {
	mu     sync.Mutex
	graphs map[string]*dag.Dag
	vals   map[string][]uint64
	fam    map[string]loadgenFamily
	refs   map[string][]uint64
}

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{
		graphs: map[string]*dag.Dag{},
		vals:   map[string][]uint64{},
		fam:    map[string]loadgenFamily{},
		refs:   map[string][]uint64{},
	}
}

func (r *streamRegistry) register(id string, fam loadgenFamily) {
	g, _ := fam.build(fam.size)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.graphs[id] = g
	r.vals[id] = make([]uint64, g.NumNodes())
	r.fam[id] = fam
}

// compute hashes one granted task.  A grant can race ahead of the
// submitter registering the job (the submit ack and the first grant
// travel on different connections), so unknown jobs are waited out
// briefly instead of failed.
func (r *streamRegistry) compute(job string, task dag.NodeID, _ string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		g, ok := r.graphs[job]
		if ok {
			r.vals[job][task] = difftest.NodeValue(g, task, r.vals[job])
			r.mu.Unlock()
			return nil
		}
		r.mu.Unlock()
		if time.Now().After(deadline) {
			return fmt.Errorf("grant for unregistered job %s", job)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// verify checks every registered job against its serial exec.Run
// reference, bit for bit.
func (r *streamRegistry) verify() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, fam := range r.fam {
		key := fmt.Sprintf("%s/%d", fam.name, fam.size)
		ref, ok := r.refs[key]
		if !ok {
			g, nonsinks := fam.build(fam.size)
			var err error
			if ref, err = loadgenReference(g, sched.Complete(g, nonsinks)); err != nil {
				return fmt.Errorf("stream: %s reference: %w", key, err)
			}
			r.refs[key] = ref
		}
		for v, got := range r.vals[id] {
			if got != ref[v] {
				return fmt.Errorf("stream: job %s (%s) node %d = %#x, want %#x (exec.Run reference)",
					id, key, v, got, ref[v])
			}
		}
	}
	return nil
}

// streamHandlerBox lets the harness swap the live server out from under
// the fleet mid-stream (the chaos handler-swap idiom): requests in the
// kill→recover window hit the dead incarnation's typed 503 and the
// clients' retry/backoff carries them to the successor.
type streamHandlerBox struct{ h http.Handler }

// submitJob POSTs one submission, retrying transient failures (and the
// typed 503 of the kill→recover window) with capped backoff.
func submitJob(ctx context.Context, httpc *http.Client, baseURL string, sp jobs.Spec) (jobs.JobStatus, error) {
	var st jobs.JobStatus
	payload, err := json.Marshal(sp)
	if err != nil {
		return st, err
	}
	wait := 5 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/jobs", bytes.NewReader(payload))
		if err != nil {
			return st, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		if err == nil {
			code := resp.StatusCode
			dec := json.NewDecoder(resp.Body)
			if code == http.StatusAccepted {
				err := dec.Decode(&st)
				resp.Body.Close()
				return st, err
			}
			resp.Body.Close()
			if code < 500 && code != http.StatusTooManyRequests {
				return st, fmt.Errorf("POST /jobs -> %d", code)
			}
		} else if ctx.Err() != nil {
			return st, ctx.Err()
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("POST /jobs kept failing: %v", err)
		}
		time.Sleep(wait)
		if wait *= 2; wait > 200*time.Millisecond {
			wait = 200 * time.Millisecond
		}
	}
}

// percentile returns the exact q-th percentile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runStream executes the full streaming benchmark: tenants submit
// Poisson job streams, a shared fleet drains them through the recovered
// service, the service is killed and recovered once mid-stream, and
// every job is verified against the serial reference.
func runStream(cfg streamConfig) (streamFile, error) {
	doc := streamFile{
		Clients: cfg.clients, Tenants: cfg.tenants, JobsPerTenant: cfg.jobsPerTenant,
		Smoke: cfg.smoke, Seed: cfg.seed,
		Jobs: cfg.tenants * cfg.jobsPerTenant,
	}
	dir, err := os.MkdirTemp("", "icsched-stream")
	if err != nil {
		return doc, err
	}
	defer os.RemoveAll(dir)
	jcfg := jobs.Config{Lease: 3 * time.Second, MaxQueued: 2*cfg.jobsPerTenant + 4}
	srv, err := jobs.Recover(dir, jcfg)
	if err != nil {
		return doc, fmt.Errorf("stream: %w", err)
	}
	var box atomic.Value
	box.Store(streamHandlerBox{srv.Handler()})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		box.Load().(streamHandlerBox).h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * (cfg.clients + cfg.tenants),
		MaxIdleConnsPerHost: 2 * (cfg.clients + cfg.tenants),
	}}
	defer httpc.CloseIdleConnections()

	reg := newStreamRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Shared fleet: workers outlive every job, stopped only when the
	// whole stream has drained.
	fleetCtx, stopFleet := context.WithCancel(ctx)
	defer stopFleet()
	var fleetWG sync.WaitGroup
	workerErrs := make([]error, cfg.clients)
	workerStats := make([]jobs.ClientStats, cfg.clients)
	for w := 0; w < cfg.clients; w++ {
		fleetWG.Add(1)
		go func(w int) {
			defer fleetWG.Done()
			cl := &jobs.Client{
				BaseURL: ts.URL, HTTP: httpc, Compute: reg.compute, Batch: 8,
				ID: fmt.Sprintf("stream-%d", w), Seed: derivedSeed("fleet", w),
				IdleWait: 200 * time.Microsecond, IdleWaitMax: 10 * time.Millisecond,
			}
			workerStats[w], workerErrs[w] = cl.Run(fleetCtx)
		}(w)
	}

	// Tenant submitters: Poisson arrivals (seeded exponential gaps), the
	// family mix cycled in order.
	mix := streamFamilies(cfg.smoke)
	var submitted atomic.Int64
	var subWG sync.WaitGroup
	subErrs := make([]error, cfg.tenants)
	for t := 0; t < cfg.tenants; t++ {
		subWG.Add(1)
		go func(t int) {
			defer subWG.Done()
			tenant := fmt.Sprintf("tenant-%d", t)
			rng := rand.New(rand.NewSource(cfg.seed + derivedSeed(tenant, 0)))
			for i := 0; i < cfg.jobsPerTenant; i++ {
				if cfg.rate > 0 {
					gap := time.Duration(rng.ExpFloat64() / cfg.rate * float64(time.Second))
					select {
					case <-time.After(gap):
					case <-ctx.Done():
						subErrs[t] = ctx.Err()
						return
					}
				}
				fam := mix[i%len(mix)]
				st, err := submitJob(ctx, httpc, ts.URL, jobs.Spec{
					Tenant: tenant, Weight: 1, Family: fam.name, Size: fam.size})
				if err != nil {
					subErrs[t] = fmt.Errorf("%s: %w", tenant, err)
					return
				}
				reg.register(st.Job, fam)
				submitted.Add(1)
			}
		}(t)
	}

	// Mid-stream crash: once half the jobs are in, kill the service and
	// recover a successor from the manifest + per-job journals, swapping
	// it under the live fleet.  Everyone in the window rides the typed
	// 503 retry path; reports against dead grants resync epochs.
	start := time.Now()
	half := int64(doc.Jobs / 2)
	for submitted.Load() < half {
		if err := ctx.Err(); err != nil {
			return doc, fmt.Errorf("stream: timed out before the mid-stream kill")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Kill()
	srv, err = jobs.Recover(dir, jcfg)
	if err != nil {
		return doc, fmt.Errorf("stream: mid-stream recover: %w", err)
	}
	box.Store(streamHandlerBox{srv.Handler()})
	doc.MidStreamRecover = true

	subWG.Wait()
	for _, err := range subErrs {
		if err != nil {
			return doc, fmt.Errorf("stream: submit: %w", err)
		}
	}

	// Drain: poll until every job reports finished (none may fail).
	for {
		if err := ctx.Err(); err != nil {
			return doc, fmt.Errorf("stream: drain timeout: %d of %d jobs finished", doc.Finished, doc.Jobs)
		}
		finished := 0
		for _, js := range srv.Jobs() {
			switch js.State {
			case jobs.StateFinished:
				finished++
			case jobs.StateFailed:
				return doc, fmt.Errorf("stream: job %s failed: %s", js.Job, js.Error)
			}
		}
		doc.Finished = finished
		if finished == doc.Jobs {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wall := time.Since(start)
	stopFleet()
	fleetWG.Wait()
	for w, err := range workerErrs {
		if err != nil && !errors.Is(err, context.Canceled) && ctx.Err() == nil {
			return doc, fmt.Errorf("stream: worker %d: %w", w, err)
		}
		doc.Resyncs += workerStats[w].Resyncs
	}

	if err := reg.verify(); err != nil {
		return doc, err
	}

	// Per-tenant accounting: completed-jobs fairness plus exact latency
	// percentiles from the job registry (submit timestamps survive the
	// recovery via the manifest).
	latencies := map[string][]float64{}
	submittedBy := map[string]int{}
	for _, js := range srv.Jobs() {
		submittedBy[js.Tenant]++
		if js.State == jobs.StateFinished {
			latencies[js.Tenant] = append(latencies[js.Tenant], js.LatencyMillis)
		}
	}
	minDone, maxDone := -1, 0
	for _, tst := range srv.ServiceStatus().Tenants {
		lats := latencies[tst.Tenant]
		sort.Float64s(lats)
		doc.PerTenant = append(doc.PerTenant, streamTenantResult{
			Tenant: tst.Tenant, Weight: tst.Weight,
			Submitted: submittedBy[tst.Tenant], Completed: tst.CompletedJobs,
			LatencyP50Millis: percentile(lats, 0.50),
			LatencyP99Millis: percentile(lats, 0.99),
		})
		if minDone == -1 || tst.CompletedJobs < minDone {
			minDone = tst.CompletedJobs
		}
		if tst.CompletedJobs > maxDone {
			maxDone = tst.CompletedJobs
		}
	}
	if minDone > 0 {
		doc.FairnessRatio = float64(maxDone) / float64(minDone)
	} else {
		doc.FairnessRatio = float64(maxDone) // a starved tenant: ratio reads as +max
	}
	doc.WallMillis = float64(wall.Microseconds()) / 1000
	doc.JobsPerSec = float64(doc.Jobs) / wall.Seconds()
	if cfg.maxSkew > 0 && (minDone == 0 || doc.FairnessRatio > cfg.maxSkew) {
		return doc, fmt.Errorf("stream: completed-jobs skew %.2f (max %d / min %d) exceeds %.1f",
			doc.FairnessRatio, maxDone, minDone, cfg.maxSkew)
	}
	return doc, nil
}

// writeStream writes BENCH_stream.json plus a stdout summary table.
func writeStream(doc streamFile, out string) error {
	if err := benchjson.Write(out, doc, "tenants", "jobs", "jobsPerSec",
		"fairnessRatio", "perTenant"); err != nil {
		return err
	}
	fmt.Printf("%-12s %6s %9s %9s %12s %12s\n",
		"TENANT", "JOBS", "DONE", "WEIGHT", "LAT-P50-MS", "LAT-P99-MS")
	for _, tr := range doc.PerTenant {
		fmt.Printf("%-12s %6d %9d %9d %12.1f %12.1f\n",
			tr.Tenant, tr.Submitted, tr.Completed, tr.Weight,
			tr.LatencyP50Millis, tr.LatencyP99Millis)
	}
	fmt.Printf("stream: %d jobs, %.1f jobs/s, fairness ratio %.2f, %d resyncs, recover=%v\n",
		doc.Jobs, doc.JobsPerSec, doc.FairnessRatio, doc.Resyncs, doc.MidStreamRecover)
	if out != "-" {
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}
