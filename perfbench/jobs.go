package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/jobs"
	"icsched/internal/sched"
)

// jobs-stream: an open loop of Poisson job arrivals at a fixed rate,
// tenants drawn uniformly, shapes drawn Zipf(1.3) from a catalog of
// family dags submitted as raw payloads by POST /jobs, and two
// jobs.Clients working the memory-only job service over HTTP.  Each job is
// timed from when it was due.

const (
	jobTenants = 4
	jobZipfS   = 1.3
	// jobDrain bounds how long the fleet may take to finish the jobs
	// once arrivals stop; jobs unfinished by then fail the run.
	jobDrain = 30 * time.Second
	// Idle backoff of the job fleet.  The open loop's workers idle
	// between arrivals, so the backoff shows in job latency; its ceiling
	// is below the client's 250ms default so that one long sleep does
	// not decide a run's tail.
	jobIdleWait    = time.Millisecond
	jobIdleWaitMax = 10 * time.Millisecond
	// jobRestarts is how many service restarts end each stream: a
	// restart takes about 10 ms, and 25 of them give recovery_s a
	// steady median.
	jobRestarts = 25
)

// shape is one catalog entry.
type shape struct {
	c       *computation
	payload []byte   // dagio JSON of the dag
	ref     []uint64 // serial reference values for the run's seed
}

// jobCatalog is the 12-shape raw-payload catalog of the job stream
// (seven shapes at tiny scale).
func jobCatalog(scale string) ([]*shape, error) {
	var cs []*computation
	if scale == "tiny" {
		for _, s := range []int{6, 8, 10} {
			cs = append(cs, gridComputation(s))
		}
		for _, d := range []int{3, 4} {
			cs = append(cs, butterflyComputation(d))
		}
		for _, n := range []int{16, 32} {
			cs = append(cs, prefixComputation(n))
		}
	} else {
		for _, s := range []int{8, 12, 16, 20, 24} {
			cs = append(cs, gridComputation(s))
		}
		for _, d := range []int{3, 4, 5} {
			cs = append(cs, butterflyComputation(d))
		}
		for _, n := range []int{32, 64, 128, 256} {
			cs = append(cs, prefixComputation(n))
		}
	}
	out := make([]*shape, len(cs))
	for i, c := range cs {
		payload, err := dagio.MarshalJSON(c.g)
		if err != nil {
			return nil, fmt.Errorf("marshal %s: %w", c.name, err)
		}
		out[i] = &shape{c: c, payload: payload}
	}
	return out, nil
}

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // offset from the stream's start
	shape  int
	tenant int
}

// arrivals draws the stream's schedule from the seed.  The number of
// jobs is rate × dur and the mix of shapes is fixed by the Zipf(s)
// probabilities (largest-remainder rounding), so every seed offers the
// same work; the seed draws the arrival times (a Poisson process given
// its count: sorted uniform times), the order of the shapes and the
// tenants.
func arrivals(seed int64, rate float64, dur time.Duration, shapes int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	weights := make([]float64, shapes)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -jobZipfS)
		total += weights[k]
	}
	counts := make([]int, shapes)
	rest := make([]int, shapes)
	left := n
	for k := range counts {
		exact := float64(n) * weights[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		rest[k] = k
	}
	sort.SliceStable(rest, func(i, j int) bool {
		ei := float64(n)*weights[rest[i]]/total - float64(counts[rest[i]])
		ej := float64(n)*weights[rest[j]]/total - float64(counts[rest[j]])
		return ei > ej
	})
	for i := 0; i < left; i++ {
		counts[rest[i]]++
	}
	out := make([]arrival, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, arrival{shape: k})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64()
	}
	sort.Float64s(times)
	for i := range out {
		out[i].due = time.Duration(times[i] * float64(dur))
		out[i].tenant = rng.Intn(jobTenants)
	}
	return out
}

// jobRec is the harness's view of one accepted job.  The generator
// fills it and closes ready; workers wait on ready before computing.
type jobRec struct {
	ready  chan struct{}
	shape  *shape
	ex     *execution
	due    time.Time
	first  atomic.Int64 // unix ns of the first task computed (first grant seen)
	finish atomic.Int64 // unix ns the harness saw the job's final ack
}

// jobTable maps job ids to records, creating them on first sight.
type jobTable struct {
	mu   sync.Mutex
	recs map[string]*jobRec
}

func (t *jobTable) get(id string) *jobRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs[id]
	if r == nil {
		r = &jobRec{ready: make(chan struct{})}
		t.recs[id] = r
	}
	return r
}

// ready returns the record of job id once the generator has filled it.
func (t *jobTable) ready(id string) (*jobRec, error) {
	r := t.get(id)
	select {
	case <-r.ready:
		return r, nil
	default:
	}
	timer := time.NewTimer(jobDrain)
	defer timer.Stop()
	select {
	case <-r.ready:
		return r, nil
	case <-timer.C:
		return nil, fmt.Errorf("job %s granted but never registered", id)
	}
}

// reportedJob extracts the job id from a /report request body.
func reportedJob(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var r struct {
		Job string `json:"job"`
	}
	raw, err := io.ReadAll(body)
	if err != nil || json.Unmarshal(raw, &r) != nil {
		return ""
	}
	return r.Job
}

// streamOut is what one stream measured.
type streamOut struct {
	pass       passAcc
	jobMs      []float64
	jobDue     []int64 // unix ns each job was due
	callAt     []int64 // unix ns each call ended
	start      time.Time
	lastFinish time.Time
	startMs    map[bool][]float64 // by cache hit
	execMs     map[bool][]float64
	submitUs   []float64
	lagMs      []float64
	refused    int
	cacheHit   float64
	coldUs     float64
	warmUs     float64
}

func runJobsStream(o *options) (*report, error) {
	o.Tenants, o.ZipfS = jobTenants, jobZipfS
	o.IdleWait, o.IdleWaitMax = jobIdleWait.String(), jobIdleWaitMax.String()
	o.DrainSeconds = jobDrain.Seconds()
	o.Restarts = jobRestarts
	rep := newReport()
	var setups []float64
	var catalog []*shape
	for i := 0; i < o.SetupReps; i++ {
		start := time.Now()
		var err error
		if catalog, err = jobCatalog(o.Scale); err != nil {
			return nil, err
		}
		srv := jobs.New(jobs.Config{})
		httptest.NewServer(srv.Handler()).Close()
		setups = append(setups, time.Since(start).Seconds())
		srv.Kill()
	}
	rep.set("setup_s", median(setups))
	for _, s := range catalog {
		o.Catalog = append(o.Catalog, s.c.name)
	}
	for _, s := range catalog {
		var err error
		if s.ref, err = reference(s.c, uint64(o.Seed)); err != nil {
			return nil, err
		}
	}

	dur := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		dur /= 2
	}
	heap := startHeapSampler(5 * time.Millisecond)
	plain, err := stream(o, catalog, dur, false, rep)
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	// heap.Stop collected the stream's garbage, so the restarts start
	// from a clean heap, as a restarted process would.
	recoveries, err := restartService(catalog, rep)
	if err != nil {
		return nil, err
	}
	rep.set("tasks_per_s", float64(plain.pass.tasks)/plain.lastFinish.Sub(plain.start).Seconds())
	// Tails are the median over one-second windows of each window's
	// quantile (windows taken before the pooled medians sort the samples).
	const window = int64(time.Second)
	rep.setPct("call_p90_us", medianOf(windows(plain.callAt, plain.pass.calls, window), 0.90))
	rep.setPct("job_p90_ms", medianOf(windows(plain.jobDue, plain.jobMs, window), 0.90))
	rep.setPct("call_p50_us", percentile(plain.pass.calls, 0.50))
	rep.setPct("job_p50_ms", percentile(plain.jobMs, 0.50))
	rep.set("eligible_area_ratio", float64(plain.pass.area)/float64(plain.pass.optArea))
	rep.setPct("recovery_s", percentile(recoveries, 0.50))
	rep.set("peak_heap_mb", float64(peak)/(1<<20))
	if !o.Trace {
		return rep, nil
	}
	traced, err := stream(o, catalog, dur, true, rep)
	if err != nil {
		return nil, err
	}
	setLayers(o, rep, &traced.pass, &plain.pass)
	rep.setPct("client.call_p99_us", medianOf(windows(traced.callAt, traced.pass.calls, window), 0.99))
	// The open loop's task rate is the arrival rate; the tracing
	// overhead shows in the jobs' latency instead.
	rep.set("trace.overhead_ratio", median(plain.jobMs)/median(traced.jobMs))
	var all []float64
	rep.setPct("jobs.submit_p50_us", percentile(traced.submitUs, 0.50))
	for hit, name := range map[bool]string{true: "hit", false: "miss"} {
		all = append(all, traced.startMs[hit]...)
		rep.setPct("jobs.start_p50_ms."+name, percentile(traced.startMs[hit], 0.50))
		rep.setPct("jobs.exec_p50_ms."+name, percentile(traced.execMs[hit], 0.50))
	}
	rep.setPct("jobs.start_p50_ms", percentile(all, 0.50))
	all = append(append([]float64(nil), traced.execMs[true]...), traced.execMs[false]...)
	rep.setPct("jobs.exec_p50_ms", percentile(all, 0.50))
	rep.set("jobs.refused", float64(traced.refused))
	rep.setPct("jobs.gen_lag_ms", percentile(traced.lagMs, 0.99))
	rep.set("schedcache.hit_ratio", traced.cacheHit)
	rep.set("schedcache.cold_us", traced.coldUs)
	rep.set("schedcache.warm_us", traced.warmUs)
	return rep, nil
}

// stream runs one open-loop stream of dur on a fresh job service
// and checks every job.
func stream(o *options, catalog []*shape, dur time.Duration, traced bool, rep *report) (*streamOut, error) {
	out := &streamOut{startMs: map[bool][]float64{}, execMs: map[bool][]float64{}}
	var ht *handlerTap
	if traced {
		ht = newHandlerTap()
	}
	srv := jobs.New(jobs.Config{})
	h := srv.Handler()
	if traced {
		h = ht.wrap(h)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	plan := arrivals(o.Seed, o.JobRate, dur, len(catalog))
	bodies := make([][][]byte, len(catalog))
	for i, s := range catalog {
		for t := 0; t < jobTenants; t++ {
			b, err := json.Marshal(jobs.Spec{Tenant: fmt.Sprintf("t%d", t), Dag: s.payload})
			if err != nil {
				return nil, err
			}
			bodies[i] = append(bodies[i], b)
		}
	}

	table := &jobTable{recs: map[string]*jobRec{}}
	var finished atomic.Int64
	onResponse := func(req *http.Request, body []byte, end time.Time) {
		if req.URL.Path != "/report" || !bytes.Contains(body, []byte(`"jobFinished":true`)) {
			return
		}
		if id := reportedJob(req); id != "" {
			r := table.get(id)
			if r.finish.CompareAndSwap(0, end.UnixNano()) {
				finished.Add(1)
			}
		}
	}
	workers := make([]*worker, o.Clients)
	for i := range workers {
		workers[i] = &worker{id: i + 1, traced: traced}
	}
	gen := &worker{id: o.Clients + 1, traced: traced}
	tr, genTr := transport(), transport()
	defer tr.CloseIdleConnections()
	defer genTr.CloseIdleConnections()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats := make([]jobs.ClientStats, len(workers))
	errs := make([]error, len(workers))
	a0, p0 := memCounters()
	start := time.Now()
	out.start = start
	var wg sync.WaitGroup
	for i, w := range workers {
		w.begin(start)
		cl := &jobs.Client{
			BaseURL: ts.URL, HTTP: w.client(tr, onResponse), Batch: o.Batch,
			IdleWait: jobIdleWait, IdleWaitMax: jobIdleWaitMax,
			ID: fmt.Sprintf("perfbench-%d", w.id), Seed: workerSeed(o.Seed, i),
			Compute: func(job string, task dag.NodeID, _ string) error {
				r, err := table.ready(job)
				if err != nil {
					return err
				}
				r.first.CompareAndSwap(0, time.Now().UnixNano())
				w.compute(func() { r.ex.run(task) })
				return nil
			},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = cl.Run(ctx)
			workers[i].stop(time.Now())
		}(i)
	}

	// The generator submits each job when it is due.
	genClient := gen.client(genTr, nil)
	var accepted []*jobRec
	for _, a := range plan {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		out.lagMs = append(out.lagMs, float64(time.Since(due).Nanoseconds())/1e6)
		rep.attempted++
		t0 := time.Now()
		resp, err := genClient.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(bodies[a.shape][a.tenant]))
		if err != nil {
			rep.fail(1, "submit: %v", err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		out.submitUs = append(out.submitUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || resp.StatusCode != http.StatusAccepted {
			if resp.StatusCode == http.StatusTooManyRequests {
				out.refused++
			}
			rep.fail(1, "submit refused: %d %s", resp.StatusCode, bytes.TrimSpace(body))
			continue
		}
		var st jobs.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			rep.fail(1, "submit reply: %v", err)
			continue
		}
		r := table.get(st.Job)
		r.shape = catalog[a.shape]
		r.ex = newExecution(r.shape.c, uint64(o.Seed), o.corrupt)
		r.due = due
		close(r.ready)
		accepted = append(accepted, r)
	}
	arrivalsEnd := time.Now()
	for finished.Load() < int64(len(accepted)) && time.Since(arrivalsEnd) < jobDrain {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	end := time.Now()
	wall := end.Sub(start)
	for _, w := range workers {
		w.wait(end)
	}
	a1, p1 := memCounters()

	// Worker accounting, as for a closed-loop pass.
	acc := &out.pass
	acc.passes = 1
	acc.allocBytes, acc.pauseNs = a1-a0, p1-p0
	for i, w := range workers {
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
			rep.attempted++
			rep.fail(1, "worker %d: %v", w.id, errs[i])
		}
		acc.idlePolls += stats[i].IdlePolls
		acc.retries += stats[i].Retries
		acc.batches += stats[i].Batches
		out.callAt = append(out.callAt, w.callAt...)
		acc.addWorker(w, wall, ht, rep)
	}
	rep.fail(gen.errors, "transport errors (generator)")

	// Every job: finished, bit-identical to its shape's reference, and
	// its observed order's eligibility area.
	status := map[string]jobs.JobStatus{}
	for _, st := range srv.Jobs() {
		status[st.Job] = st
	}
	states := map[*dag.Dag]*sched.State{}
	table.mu.Lock()
	ids := make(map[*jobRec]string, len(table.recs))
	for id, r := range table.recs {
		ids[r] = id
	}
	table.mu.Unlock()
	for _, r := range accepted {
		id := ids[r]
		rep.attempted++
		fin := r.finish.Load()
		if fin == 0 {
			rep.fail(1, "job %s (%s) never finished", id, r.shape.c.name)
			continue
		}
		g := r.shape.c.g
		st := states[g]
		if st == nil {
			st = sched.NewState(g)
			states[g] = st
		}
		vd := r.ex.check(r.shape.ref, st)
		rep.attempted += int64(vd.checked)
		rep.fail(vd.mismatches, "job %s (%s): node values or execution order differ from the exec.Run reference", id, r.shape.c.name)
		acc.tasks += g.NumNodes()
		acc.area += vd.area
		acc.optArea += r.shape.c.optArea
		acc.replayNs += int64(vd.replay * 1e9)
		finish := time.Unix(0, fin)
		out.jobMs = append(out.jobMs, float64(finish.Sub(r.due).Nanoseconds())/1e6)
		out.jobDue = append(out.jobDue, r.due.UnixNano())
		if finish.After(out.lastFinish) {
			out.lastFinish = finish
		}
		if first := r.first.Load(); first != 0 {
			hit := status[id].CacheHit
			out.startMs[hit] = append(out.startMs[hit], float64(first-r.due.UnixNano())/1e6)
			out.execMs[hit] = append(out.execMs[hit], float64(fin-first)/1e6)
		}
	}
	cs := srv.CacheStats()
	out.cacheHit = cs.HitRate()
	if cs.Misses > 0 {
		out.coldUs = float64(cs.ColdNanos) / 1e3 / float64(cs.Misses)
	}
	if warm := cs.Hits + cs.Shared; warm > 0 {
		out.warmUs = float64(cs.WarmNanos) / 1e3 / float64(warm)
	}

	ctxClose, cancelClose := context.WithTimeout(context.Background(), passTimeout)
	defer cancelClose()
	if err := srv.Close(ctxClose); err != nil {
		return nil, fmt.Errorf("close job service: %w", err)
	}
	return out, nil
}

// restartService times jobRestarts restarts of the memory-only job
// service.  It restarts empty, with a cold schedule cache: it has
// recovered once every catalog shape is analysed and active again,
// ready to grant.
func restartService(catalog []*shape, rep *report) ([]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	var out []float64
	for i := 0; i < jobRestarts; i++ {
		t0 := time.Now()
		fresh := jobs.New(jobs.Config{})
		for _, s := range catalog {
			if _, err := fresh.Submit(jobs.Spec{Tenant: "restart", Dag: s.payload}); err != nil {
				return nil, fmt.Errorf("restart submit: %w", err)
			}
		}
		var st jobs.Status
		for st = fresh.ServiceStatus(); st.Active+st.Failed < len(catalog) && time.Since(t0) < jobDrain; st = fresh.ServiceStatus() {
			time.Sleep(20 * time.Microsecond)
		}
		out = append(out, time.Since(t0).Seconds())
		rep.attempted++
		if st.Active != len(catalog) {
			rep.fail(1, "restarted job service activated %d of %d shapes (%d failed)", st.Active, len(catalog), st.Failed)
		}
		if err := fresh.Close(ctx); err != nil {
			return nil, fmt.Errorf("close restarted job service: %w", err)
		}
	}
	return out, nil
}
