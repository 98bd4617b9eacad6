package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/shard"
	"icsched/internal/wal"
)

// Closed-loop workloads: each pass executes the whole dag once on fresh
// servers, with every worker asking for its next batch only after the
// previous one is acked.  Passes repeat until the measured time is up;
// a warm-up pass runs first.  A traced run alternates untraced and
// traced passes, so both see the same conditions.

// passTimeout bounds one pass; a pass that hangs fails the run.
const passTimeout = 60 * time.Second

// Idle backoff of the closed-loop workers: a closed loop measures the
// protocol's cost per task, and the clients' default 250ms idle ceiling
// would swamp it with sleep time on the narrow ends of the dags.
const (
	closedIdleWait    = 100 * time.Microsecond
	closedIdleWaitMax = time.Millisecond
)

// closedRestarts is how many timed recoveries end each pass: a few per
// pass give recovery_s enough samples for a steady median.
const closedRestarts = 3

// closedWorkload is one closed-loop workload.
type closedWorkload interface {
	// setUp builds the dag and its order and starts (then stops) the
	// servers once; runClosed times it.
	setUp() error
	comp() *computation
	// pass executes the dag once on fresh servers and returns the time
	// from the workers' start until the last worker stopped.
	pass(env *passEnv, acc *passAcc, rep *report) (time.Duration, error)
}

// passEnv is what one pass works with.
type passEnv struct {
	traced  bool
	workers []*worker
	ex      *execution
	ht      *handlerTap // traced passes only
	wt      *walTap     // traced passes only

	// When the workers started, and the allocation and GC pause totals
	// while they ran.
	start               time.Time
	allocBytes, pauseNs uint64
}

// passAcc accumulates the passes of one kind (untraced or traced).
type passAcc struct {
	passes  int
	tasks   int
	rates   []float64 // tasks per second of each pass
	jobP50  []pct     // each pass's task latency percentiles
	jobP90  []pct
	calls   []float64
	perPass [][]float64 // each pass's call latencies
	restart []float64   // recovery samples, s
	area    int64
	optArea int64

	// Worker engine counters.
	clientCalls, idlePolls, retries, batches int
	steals, shardIdle                        int

	// Traced layers.
	handlerNs, callNs, computeNs, idleNs, selfNs int64
	timelineNs, capacityNs                       int64
	handlerUs                                    []float64
	reqBytes, respBytes                          int64
	unjoined, unnested                           int
	lockSum                                      float64
	lockCount                                    uint64
	replayNs                                     int64
	fsyncs                                       []float64
	fsyncNs, walBytes                            int64
	replayRecords                                []float64
	arcsFwd, arcsDedup                           float64
	allocBytes, pauseNs                          uint64
}

func (o *options) closedParams() {
	o.IdleWait, o.IdleWaitMax = closedIdleWait.String(), closedIdleWaitMax.String()
	o.Restarts = closedRestarts
}

// runClosed drives a closed-loop workload for the measured time.
func runClosed(o *options, cw closedWorkload) (*report, error) {
	rep := newReport()
	var setups []float64
	for i := 0; i < o.SetupReps; i++ {
		start := time.Now()
		if err := cw.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups))
	c := cw.comp()
	salt := uint64(o.Seed)
	ref, err := reference(c, salt)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	st := sched.NewState(c.g)
	if err := onePass(o, cw, false, ref, st, &passAcc{}, rep); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	heap := startHeapSampler(5 * time.Millisecond)
	plain, traced := &passAcc{}, &passAcc{}
	deadline := o.deadline(time.Now())
	for i := 0; ; i++ {
		tracedPass := o.Trace && i%2 == 1
		acc := plain
		if tracedPass {
			acc = traced
		}
		if err := onePass(o, cw, tracedPass, ref, st, acc, rep); err != nil {
			heap.Stop()
			return nil, err
		}
		if !time.Now().Before(deadline) && plain.passes > 0 && (!o.Trace || traced.passes > 0) {
			break
		}
	}
	peak := heap.Stop()

	rep.setPct("tasks_per_s", percentile(plain.rates, 0.50))
	rep.setPct("call_p50_us", percentile(plain.calls, 0.50))
	rep.setPct("call_p90_us", medianOf(plain.perPass, 0.90))
	rep.setPct("job_p50_ms", combine(plain.jobP50))
	rep.setPct("job_p90_ms", combine(plain.jobP90))
	rep.set("eligible_area_ratio", float64(plain.area)/float64(plain.optArea))
	rep.setPct("recovery_s", percentile(plain.restart, 0.50))
	rep.set("peak_heap_mb", float64(peak)/(1<<20))
	if o.Trace {
		setLayers(o, rep, traced, plain)
	}
	return rep, nil
}

// onePass runs one pass and folds it into acc, failing the report on
// any wrong value.
func onePass(o *options, cw closedWorkload, traced bool, ref []uint64, st *sched.State, acc *passAcc, rep *report) error {
	c := cw.comp()
	env := &passEnv{traced: traced, ex: newExecution(c, uint64(o.Seed), o.corrupt)}
	for i := 0; i < o.Clients; i++ {
		env.workers = append(env.workers, &worker{id: i + 1, traced: traced, ex: env.ex})
	}
	if traced {
		env.ht, env.wt = newHandlerTap(), &walTap{}
	}
	// Every pass starts from a collected heap, so no collection owed by
	// the previous pass lands in this one's timing.
	runtime.GC()
	wall, err := cw.pass(env, acc, rep)
	if err != nil {
		return err
	}
	vd := env.ex.check(ref, st)
	rep.attempted += int64(vd.checked)
	rep.fail(vd.mismatches, "node values or execution order differ from the exec.Run reference (%s)", c.name)

	acc.passes++
	acc.tasks += c.g.NumNodes()
	lat := env.ex.latencies(env.start)
	acc.jobP50 = append(acc.jobP50, percentile(lat, 0.50))
	acc.jobP90 = append(acc.jobP90, percentile(lat, 0.90))
	acc.rates = append(acc.rates, float64(c.g.NumNodes())/wall.Seconds())
	acc.area += vd.area
	acc.optArea += c.optArea
	acc.replayNs += int64(vd.replay * 1e9)
	acc.allocBytes += env.allocBytes
	acc.pauseNs += env.pauseNs
	var passCalls []float64
	for _, w := range env.workers {
		passCalls = append(passCalls, w.calls...)
		acc.addWorker(w, wall, env.ht, rep)
	}
	acc.perPass = append(acc.perPass, passCalls)
	acc.addWAL(env.wt)
	return nil
}

// addWorker folds one worker's measurements of a pass into acc.
func (acc *passAcc) addWorker(w *worker, wall time.Duration, ht *handlerTap, rep *report) {
	acc.calls = append(acc.calls, w.calls...)
	acc.clientCalls += len(w.calls)
	rep.attempted += int64(len(w.calls))
	rep.fail(w.errors, "transport errors")
	rep.fail(w.refuse, "refused calls (5xx, 409, 429)")
	if !w.traced {
		return
	}
	acc.callNs += w.callNs
	acc.computeNs += w.computeNs
	acc.idleNs += w.idleNs
	acc.selfNs += w.selfNs
	acc.timelineNs += w.timelineNs()
	acc.capacityNs += wall.Nanoseconds()
	acc.reqBytes += w.reqBytes
	acc.respBytes += w.respBytes
	if ht != nil && len(w.spans) > 0 {
		h, durs, unjoined, unnested := ht.join(w)
		acc.handlerNs += h
		acc.handlerUs = append(acc.handlerUs, durs...)
		acc.unjoined += unjoined
		acc.unnested += unnested
	}
}

// addWAL folds a traced pass's journal observations into acc.
func (acc *passAcc) addWAL(wt *walTap) {
	if wt == nil {
		return
	}
	wt.mu.Lock()
	defer wt.mu.Unlock()
	acc.fsyncs = append(acc.fsyncs, wt.fsyncs...)
	acc.fsyncNs += wt.fsyncNs
	acc.walBytes += wt.bytes
}

// setLayers derives the per-layer metrics from the traced passes (and
// the untraced ones, for the tracing overhead).
func setLayers(o *options, rep *report, t, plain *passAcc) {
	ktasks := float64(t.tasks) / 1000
	perK := func(ns int64) float64 { return float64(ns) / 1e9 / ktasks }
	tasks := float64(t.tasks)
	// Over HTTP a call span is transport plus handler; in process it
	// is the server call itself.
	transport, inproc := 0.0, perK(t.callNs)
	if len(t.handlerUs) > 0 {
		transport, inproc = perK(t.callNs-t.handlerNs), 0
	}
	rep.set("transport.self_s", transport)
	rep.set("icserver.call_s", inproc)
	rep.set("transport.req_bytes", float64(t.reqBytes)/tasks)
	rep.set("transport.resp_bytes", float64(t.respBytes)/tasks)
	rep.set("icserver.handler_s", perK(t.handlerNs))
	rep.setPct("icserver.handler_p50_us", percentile(t.handlerUs, 0.50))
	rep.setPct("icserver.handler_p99_us", percentile(t.handlerUs, 0.99))
	rep.set("icserver.lock_hold_mean_us", 0)
	if t.lockCount > 0 {
		rep.set("icserver.lock_hold_mean_us", t.lockSum/float64(t.lockCount)*1e6)
	}
	rep.set("sched.ns_per_task", float64(t.replayNs)/tasks)
	rep.set("wal.fsyncs", float64(len(t.fsyncs))/ktasks)
	rep.set("wal.fsync_s", perK(t.fsyncNs))
	rep.setPct("wal.fsync_p99_us", percentile(t.fsyncs, 0.99))
	rep.set("wal.append_bytes_per_task", float64(t.walBytes)/tasks)
	rep.setPct("wal.replay_records", percentile(t.replayRecords, 0.50))
	rep.set("client.calls", float64(t.clientCalls)/ktasks)
	rep.setPct("client.call_p99_us", medianOf(t.perPass, 0.99))
	rep.set("client.tasks_per_call", 0)
	if t.batches > 0 {
		rep.set("client.tasks_per_call", tasks/float64(t.batches))
	}
	rep.set("client.idle_polls", float64(t.idlePolls)/ktasks)
	rep.set("client.retries", float64(t.retries)/ktasks)
	rep.set("client.idle_s", perK(t.idleNs))
	rep.set("client.self_s", perK(t.selfNs))
	rep.set("compute.self_s", perK(t.computeNs))
	rep.set("shard.arcs_forwarded", t.arcsFwd/float64(t.passes))
	rep.set("shard.arcs_dedup", t.arcsDedup/float64(t.passes))
	rep.set("shard.steal_ratio", 0)
	if t.steals > 0 {
		rep.set("shard.steal_ratio", float64(t.steals)/float64(t.batches))
	}
	rep.set("shard.idle_polls", float64(t.shardIdle)/ktasks)
	rep.set("runtime.alloc_bytes_per_task", float64(t.allocBytes)/tasks)
	rep.set("runtime.gc_pause_s", perK(int64(t.pauseNs)))
	for _, m := range []string{"jobs.submit_p50_us", "jobs.start_p50_ms", "jobs.exec_p50_ms",
		"jobs.start_p50_ms.hit", "jobs.start_p50_ms.miss", "jobs.exec_p50_ms.hit", "jobs.exec_p50_ms.miss",
		"jobs.refused", "jobs.gen_lag_ms", "schedcache.hit_ratio", "schedcache.cold_us", "schedcache.warm_us"} {
		rep.set(m, 0)
	}
	rep.set("trace.overhead_ratio", median(t.rates)/median(plain.rates))
	reconcile(o, rep, t)
}

// reconcile checks that the per-layer self times add up: on every
// traced pass each worker's compute, transport, handler (or in-process
// call), idle and client-engine spans must cover clients × wall within
// the stated tolerance, every client span must find its handler span,
// and every handler span must nest inside its client span.
func reconcile(o *options, rep *report, t *passAcc) {
	ratio := float64(t.timelineNs) / float64(t.capacityNs)
	rep.set("trace.reconcile_ratio", ratio)
	if ratio < 1-o.ReconcileTolerance || ratio > 1+o.ReconcileTolerance {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"reconciliation: layers cover %.4f of clients × wall, outside ±%.2f", ratio, o.ReconcileTolerance))
	}
	if t.unjoined > 0 || t.unnested > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf(
			"reconciliation: %d client spans without a handler span, %d handler spans outside their client span",
			t.unjoined, t.unnested))
	}
}

// startWorkers runs one goroutine per worker and waits for all of them;
// it returns the time from start until the last one stopped.
func startWorkers(env *passEnv, run func(i int, w *worker) error) (time.Duration, []error) {
	errs := make([]error, len(env.workers))
	var wg sync.WaitGroup
	a0, p0 := memCounters()
	start := time.Now()
	env.start = start
	for i, w := range env.workers {
		w.begin(start)
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = run(i, w)
			w.stop(time.Now())
		}(i, w)
	}
	wg.Wait()
	end := time.Now()
	a1, p1 := memCounters()
	env.allocBytes, env.pauseNs = a1-a0, p1-p0
	for _, w := range env.workers {
		w.wait(end)
	}
	return end.Sub(start), errs
}

// failErrs records worker errors as failed operations.
func failErrs(rep *report, errs []error) {
	for i, err := range errs {
		if err != nil {
			rep.attempted++
			rep.fail(1, "worker %d: %v", i+1, err)
		}
	}
}

// workerSeed derives worker i's jitter seed from the run's seed.
func workerSeed(seed int64, i int) int64 { return seed*1009 + int64(i) + 1 }

// lockHold adds a server's exact lock-hold Sum/Count from its registry.
func lockHold(acc *passAcc, srv *icserver.Server) {
	h := srv.Metrics().Histogram("icserver_lock_hold_seconds", "", nil)
	acc.lockSum += h.Sum()
	acc.lockCount += h.Count()
}

// ---- grid-wire ---------------------------------------------------------

// gridWire: the wavefront on a memory-only server, two batched
// icserver.Clients over loopback HTTP.
type gridWire struct {
	o *options
	c *computation
}

func runGridWire(o *options) (*report, error) {
	o.closedParams()
	return runClosed(o, &gridWire{o: o})
}

func (gw *gridWire) comp() *computation { return gw.c }

func (gw *gridWire) setUp() error {
	gw.c = gridComputation(gw.o.GridSide)
	srv := icserver.New(gw.c.g, heur.Static("IC-OPTIMAL", gw.c.order), icserver.WithLease(time.Minute))
	httptest.NewServer(srv.Handler()).Close()
	return nil
}

func (gw *gridWire) pass(env *passEnv, acc *passAcc, rep *report) (time.Duration, error) {
	c := gw.c
	// A memory-only server restarts empty: its recovery is a fresh
	// server for the whole dag.
	var srv *icserver.Server
	for i := 0; i < gw.o.Restarts; i++ {
		start := time.Now()
		srv = icserver.New(c.g, heur.Static("IC-OPTIMAL", c.order), icserver.WithLease(time.Minute))
		acc.restart = append(acc.restart, time.Since(start).Seconds())
	}
	h := srv.Handler()
	if env.traced {
		h = env.ht.wrap(h)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	tr := transport()
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	stats := make([]icserver.Stats, len(env.workers))
	wall, errs := startWorkers(env, func(i int, w *worker) error {
		cl := &icserver.Client{
			BaseURL: ts.URL, HTTP: w.client(tr, nil), Batch: gw.o.Batch,
			IdleWait: closedIdleWait, IdleWaitMax: closedIdleWaitMax,
			ID: fmt.Sprintf("perfbench-%d", w.id), Seed: workerSeed(gw.o.Seed, i),
			Compute: func(v dag.NodeID, _ string) error {
				w.execute(v)
				return nil
			},
		}
		var err error
		stats[i], err = cl.Run(ctx)
		return err
	})
	failErrs(rep, errs)
	for _, s := range stats {
		acc.idlePolls += s.IdlePolls
		acc.retries += s.Retries
		acc.batches += s.Batches
	}
	rep.attempted++
	if st := srv.Status(); !srv.Finished() || st.Completed != c.g.NumNodes() {
		rep.fail(1, "server finished=%v with %d of %d tasks completed", srv.Finished(), st.Completed, c.g.NumNodes())
	}
	if env.traced {
		lockHold(acc, srv)
	}
	return wall, nil
}

// ---- grid-durable ------------------------------------------------------

// gridDurable: the wavefront on a journaled server driven in-process by
// two goroutines calling ReportAllocate; each pass ends with Kill and a
// timed Recover of the whole journal.
type gridDurable struct {
	o *options
	c *computation
}

func runGridDurable(o *options) (*report, error) {
	o.closedParams()
	return runClosed(o, &gridDurable{o: o})
}

func (gd *gridDurable) comp() *computation { return gd.c }

func (gd *gridDurable) setUp() error {
	gd.c = gridComputation(gd.o.GridSide)
	dir, err := os.MkdirTemp(gd.o.workdir, "grid-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := icserver.Recover(dir, gd.c.g, heur.Static("IC-OPTIMAL", gd.c.order), wal.Options{})
	if err != nil {
		return err
	}
	srv.Kill()
	return nil
}

func (gd *gridDurable) pass(env *passEnv, acc *passAcc, rep *report) (time.Duration, error) {
	c := gd.c
	dir, err := os.MkdirTemp(gd.o.workdir, "grid-durable-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	policy := heur.Static("IC-OPTIMAL", c.order)
	srv, err := icserver.Recover(dir, c.g, policy, env.wt.options(wal.Options{}))
	if err != nil {
		return 0, err
	}
	batchCap := gd.o.Batch
	wall, errs := startWorkers(env, func(i int, w *worker) error {
		var done []dag.NodeID
		idle := closedIdleWait / 10
		for {
			start := time.Now()
			_, batch, state, err := srv.ReportAllocate(done, nil, batchCap)
			end := time.Now()
			w.call(start, end, len(batch) == 0)
			if err != nil {
				w.refuse++
				return err
			}
			if state == icserver.AllocFinished {
				return nil
			}
			if len(batch) == 0 {
				w.idle++
				time.Sleep(idle)
				if idle *= 2; idle > closedIdleWaitMax {
					idle = closedIdleWaitMax
				}
				done = nil
				continue
			}
			idle = closedIdleWait / 10
			w.batches++
			for _, v := range batch {
				w.execute(v)
			}
			done = batch
		}
	})
	failErrs(rep, errs)
	for _, w := range env.workers {
		acc.idlePolls += w.idle
		acc.batches += w.batches
	}
	rep.attempted++
	if !srv.Finished() {
		rep.fail(1, "journaled server did not finish")
	}
	if env.traced {
		lockHold(acc, srv)
	}
	epoch := srv.Epoch()
	srv.Kill()
	if env.traced {
		rec, err := wal.ReadAll(dir)
		if err != nil {
			return 0, fmt.Errorf("read journal: %w", err)
		}
		acc.replayRecords = append(acc.replayRecords, float64(len(rec.Records)))
	}
	// Each recovery but the last is killed in turn, so every one
	// replays the whole journal and must bump the epoch again.  They
	// start from a collected heap, as in a restarted process.
	runtime.GC()
	for i := 0; i < gd.o.Restarts; i++ {
		start := time.Now()
		rec, err := icserver.Recover(dir, c.g, policy, wal.Options{})
		acc.restart = append(acc.restart, time.Since(start).Seconds())
		rep.attempted++
		if err != nil {
			rep.fail(1, "recover: %v", err)
			return wall, nil
		}
		if st := rec.Status(); !rec.Finished() || st.Completed != c.g.NumNodes() || rec.Epoch() <= epoch {
			rep.fail(1, "recovered server: finished=%v, %d of %d completed, epoch %d after %d",
				rec.Finished(), st.Completed, c.g.NumNodes(), rec.Epoch(), epoch)
		}
		epoch = rec.Epoch()
		if i < gd.o.Restarts-1 {
			rec.Kill()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
		err = rec.Shutdown(ctx)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("shutdown recovered server: %w", err)
		}
	}
	return wall, nil
}

// ---- butterfly-shard ---------------------------------------------------

// butterflyShard: B_d cut into shards along its IC-optimal order, a
// journaled coordinator, and home-pinned shard.Workers over HTTP; each
// pass ends with Kill and a timed recovery of every shard and the bus.
type butterflyShard struct {
	o    *options
	c    *computation
	part *shard.Partition
}

func runButterflyShard(o *options) (*report, error) {
	o.closedParams()
	o.Shards = 2
	return runClosed(o, &butterflyShard{o: o})
}

func (bs *butterflyShard) comp() *computation { return bs.c }

func (bs *butterflyShard) setUp() error {
	bs.c = butterflyComputation(bs.o.ButterflyDim)
	p, err := shard.ByOrder(bs.c.g, bs.o.Shards, bs.c.order)
	if err != nil {
		return err
	}
	bs.part = p
	dir, err := os.MkdirTemp(bs.o.workdir, "butterfly-shard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	coord, err := shard.New(bs.c.g, bs.c.order, p, shard.Config{Dir: dir, Lease: time.Minute})
	if err != nil {
		return err
	}
	httptest.NewServer(coord.Handler()).Close()
	coord.Kill()
	return nil
}

func (bs *butterflyShard) pass(env *passEnv, acc *passAcc, rep *report) (time.Duration, error) {
	c, p := bs.c, bs.part
	dir, err := os.MkdirTemp(bs.o.workdir, "butterfly-shard-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	coord, err := shard.New(c.g, c.order, p, shard.Config{Dir: dir, Lease: time.Minute,
		WalOpts: env.wt.options(wal.Options{})})
	if err != nil {
		return 0, err
	}
	h := coord.Handler()
	if env.traced {
		h = env.ht.wrap(h)
	}
	ts := httptest.NewServer(h)
	tr := transport()
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	stats := make([]shard.WorkerStats, len(env.workers))
	wall, errs := startWorkers(env, func(i int, w *worker) error {
		wk := &shard.Worker{
			BaseURL: ts.URL, HTTP: w.client(tr, nil), Shards: p.K, Home: i % p.K,
			Batch: bs.o.Batch, IdleWait: closedIdleWait, IdleWaitMax: closedIdleWaitMax,
			ID: fmt.Sprintf("perfbench-%d", w.id), Seed: workerSeed(bs.o.Seed, i),
			Compute: func(s int, local dag.NodeID, _ string) error {
				v := p.Global(s, local)
				w.execute(v)
				return nil
			},
		}
		var err error
		stats[i], err = wk.Run(ctx)
		return err
	})
	ts.Close()
	tr.CloseIdleConnections()
	failErrs(rep, errs)
	for _, s := range stats {
		acc.idlePolls += s.IdlePolls
		acc.shardIdle += s.IdlePolls
		acc.retries += s.Retries
		acc.batches += s.Batches
		acc.steals += s.Steals
		rep.fail(s.Dropped, "tasks dropped by a shard worker")
	}
	st := coord.Status()
	rep.attempted++
	if !coord.Finished() || st.Completed != c.g.NumNodes() {
		rep.fail(1, "coordinator finished=%v with %d of %d tasks completed", coord.Finished(), st.Completed, c.g.NumNodes())
	}
	epochs := make([]uint64, p.K)
	for i := range epochs {
		epochs[i] = coord.Server(i).Epoch()
		if env.traced {
			lockHold(acc, coord.Server(i))
		}
	}
	if env.traced {
		acc.arcsFwd += float64(st.ArcsForwarded)
		acc.arcsDedup += float64(st.ArcsDeduplicated)
	}
	coord.Kill()
	if env.traced {
		n, err := journalRecords(dir)
		if err != nil {
			return 0, err
		}
		acc.replayRecords = append(acc.replayRecords, float64(n))
	}
	// As on grid-durable, each recovery but the last is killed in turn.
	runtime.GC()
	for r := 0; r < bs.o.Restarts; r++ {
		start := time.Now()
		rec, err := shard.New(c.g, c.order, p, shard.Config{Dir: dir, Lease: time.Minute})
		acc.restart = append(acc.restart, time.Since(start).Seconds())
		rep.attempted++
		if err != nil {
			rep.fail(1, "recover coordinator: %v", err)
			return wall, nil
		}
		if !rec.Finished() {
			rep.fail(1, "recovered coordinator not finished")
		}
		for i := range epochs {
			e := rec.Server(i).Epoch()
			if e <= epochs[i] {
				rep.fail(1, "shard %d epoch %d not bumped past %d", i, e, epochs[i])
			}
			epochs[i] = e
		}
		if r < bs.o.Restarts-1 {
			rec.Kill()
			continue
		}
		if err := rec.Shutdown(ctx); err != nil {
			return 0, fmt.Errorf("shutdown recovered coordinator: %w", err)
		}
	}
	return wall, nil
}

// journalRecords counts the records a recovery of every journal under
// root replays.
func journalRecords(root string) (int, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := wal.ReadAll(filepath.Join(root, e.Name()))
		if err != nil {
			return 0, fmt.Errorf("read journal %s: %w", e.Name(), err)
		}
		n += len(rec.Records)
	}
	return n, nil
}
