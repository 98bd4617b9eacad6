package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"icsched/internal/benchjson"
	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/dagio"
	"icsched/internal/difftest"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/jobs"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
	"icsched/internal/schedcache"
)

// Zipf mode: a Zipf-distributed stream of RAW dag payloads drawn from a
// small catalog of family shapes flows through the multi-tenant job
// service with its schedule cache.  Raw payloads take the expensive
// MAX-NEW-ELIGIBLE analysis on a cold miss, so the cache's value shows
// directly: the run reports hit rate, cold-vs-warm analysis latency,
// and — via an icserver-level microbenchmark — the grant-path latency
// of cursor replay vs the static-policy search.  Results land in
// BENCH_cache.json; the -min* flags turn the run into a CI guard.

// zipfConfig parameterizes one zipf-mode run.
type zipfConfig struct {
	jobs    int
	workers int
	seed    int64
	smoke   bool
	// Guards (0 = off): minimum cache hit rate, minimum cold/warm
	// analysis speedup, and the maximum allowed replay-vs-static
	// grant-path p99 ratio.
	minHitRate        float64
	minAnalysisFactor float64
	maxReplayP99Ratio float64
}

// zipfShape is one catalog entry: a family-shaped dag submitted as a
// raw dagio payload.
type zipfShape struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`

	payload json.RawMessage
	ref     []uint64
	g       *dag.Dag
}

// zipfGrantPath is the grant-path microbenchmark block: serial
// AllocateBatch latency against the same dag and order under the
// static-policy search vs cursor replay.
type zipfGrantPath struct {
	Family           string  `json:"family"`
	Nodes            int     `json:"nodes"`
	Batch            int     `json:"batch"`
	StaticP50Micros  float64 `json:"staticP50Micros"`
	StaticP99Micros  float64 `json:"staticP99Micros"`
	ReplayP50Micros  float64 `json:"replayP50Micros"`
	ReplayP99Micros  float64 `json:"replayP99Micros"`
	ReplaySpeedupP99 float64 `json:"replaySpeedupP99"`
}

// zipfFile is the BENCH_cache.json schema.
type zipfFile struct {
	Smoke   bool        `json:"smoke"`
	Jobs    int         `json:"jobs"`
	ZipfS   float64     `json:"zipfS"`
	Catalog []zipfShape `json:"catalog"`

	HitRate    float64 `json:"hitRate"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Shared     uint64  `json:"shared"`
	Evictions  uint64  `json:"evictions"`
	Collisions uint64  `json:"collisions"`
	Analyses   uint64  `json:"analyses"`
	ReplayJobs int     `json:"replayJobs"`

	ColdAnalysisMicrosMean float64 `json:"coldAnalysisMicrosMean"`
	WarmLookupMicrosMean   float64 `json:"warmLookupMicrosMean"`
	AnalysisSpeedup        float64 `json:"analysisSpeedup"`

	ColdJobP50Millis float64 `json:"coldJobP50Millis"`
	ColdJobP99Millis float64 `json:"coldJobP99Millis"`
	WarmJobP50Millis float64 `json:"warmJobP50Millis"`
	WarmJobP99Millis float64 `json:"warmJobP99Millis"`

	GrantPath zipfGrantPath `json:"grantPath"`
}

// zipfS is the catalog skew: shape k drawn ∝ 1/(k+1)^zipfS, so a
// handful of hot shapes dominates — the steady-state regime schedule
// caching targets.
const zipfS = 1.3

// zipfCatalog builds the shape catalog: family dags serialized as raw
// dagio payloads, so every cold submission pays the MAX-NEW-ELIGIBLE
// analysis and every warm one just the canonical-hash lookup.
func zipfCatalog(smoke bool) ([]zipfShape, error) {
	type src struct {
		name string
		g    *dag.Dag
	}
	var srcs []src
	add := func(name string, g *dag.Dag) { srcs = append(srcs, src{name, g}) }
	if smoke {
		for _, s := range []int{6, 8, 10} {
			add(fmt.Sprintf("wavefront-%d", s), mesh.Grid(s, s))
		}
		for _, d := range []int{3, 4} {
			add(fmt.Sprintf("fftconv-%d", d), butterfly.Network(d))
		}
		for _, n := range []int{16, 32} {
			add(fmt.Sprintf("prefix-%d", n), prefix.Network(n))
		}
	} else {
		for _, s := range []int{8, 12, 16, 20, 24} {
			add(fmt.Sprintf("wavefront-%d", s), mesh.Grid(s, s))
		}
		for _, d := range []int{3, 4, 5} {
			add(fmt.Sprintf("fftconv-%d", d), butterfly.Network(d))
		}
		for _, n := range []int{32, 64, 128, 256} {
			add(fmt.Sprintf("prefix-%d", n), prefix.Network(n))
		}
	}
	shapes := make([]zipfShape, len(srcs))
	for i, s := range srcs {
		payload, err := dagio.MarshalJSON(s.g)
		if err != nil {
			return nil, fmt.Errorf("zipf: marshal %s: %w", s.name, err)
		}
		ref, err := loadgenReference(s.g, s.g.TopoOrder())
		if err != nil {
			return nil, fmt.Errorf("zipf: reference %s: %w", s.name, err)
		}
		shapes[i] = zipfShape{Name: s.name, Nodes: s.g.NumNodes(),
			payload: payload, ref: ref, g: s.g}
	}
	return shapes, nil
}

// runZipf executes the zipf-mode benchmark and applies its guards.
func runZipf(cfg zipfConfig) (zipfFile, error) {
	catalog, err := zipfCatalog(cfg.smoke)
	if err != nil {
		return zipfFile{}, err
	}
	doc := zipfFile{Smoke: cfg.smoke, Jobs: cfg.jobs, ZipfS: zipfS, Catalog: catalog}

	cache := schedcache.New(schedcache.Options{})
	s := jobs.New(jobs.Config{MaxQueued: cfg.jobs + 64, Cache: cache})

	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(catalog)-1))
	jobShape := make(map[string]int)
	vals := make(map[string][]uint64)
	var mu sync.Mutex // guards vals (workers hash concurrently)
	for i := 0; i < cfg.jobs; i++ {
		k := int(zipf.Uint64())
		st, err := s.Submit(jobs.Spec{Tenant: "zipf", Dag: catalog[k].payload})
		if err != nil {
			return doc, fmt.Errorf("zipf: submit %d: %w", i, err)
		}
		jobShape[st.Job] = k
		vals[st.Job] = make([]uint64, catalog[k].Nodes)
	}

	// The fleet: workers allocate job-scoped batches, hash the FNV node
	// values, and report, until every job is terminal.
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				grant, err := s.Allocate(8)
				if err != nil {
					errCh <- err
					return
				}
				if len(grant.Tasks) == 0 {
					st := s.ServiceStatus()
					if st.Finished+st.Failed >= cfg.jobs {
						return
					}
					time.Sleep(200 * time.Microsecond)
					continue
				}
				shape := catalog[jobShape[grant.Job]]
				done := make([]dag.NodeID, len(grant.Tasks))
				mu.Lock()
				for i, tg := range grant.Tasks {
					vals[grant.Job][tg.Task] = difftest.NodeValue(shape.g, tg.Task, vals[grant.Job])
					done[i] = tg.Task
				}
				mu.Unlock()
				if _, err := s.Report(grant.Job, done, nil, grant.Epoch, 0); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return doc, fmt.Errorf("zipf: fleet: %w", err)
	}

	// Bit-identity: every job's values must match its shape's serial
	// reference, warm and cold alike.
	var coldLats, warmLats []float64
	for _, st := range s.Jobs() {
		if st.State != jobs.StateFinished {
			return doc, fmt.Errorf("zipf: job %s ended %s: %s", st.Job, st.State, st.Error)
		}
		shape := catalog[jobShape[st.Job]]
		for v, got := range vals[st.Job] {
			if got != shape.ref[v] {
				return doc, fmt.Errorf("zipf: job %s (%s) node %d = %#x, want %#x",
					st.Job, shape.Name, v, got, shape.ref[v])
			}
		}
		if st.CacheHit {
			warmLats = append(warmLats, st.LatencyMillis)
		} else {
			coldLats = append(coldLats, st.LatencyMillis)
		}
		if st.Replay {
			doc.ReplayJobs++
		}
	}
	sort.Float64s(coldLats)
	sort.Float64s(warmLats)
	doc.ColdJobP50Millis = percentile(coldLats, 0.50)
	doc.ColdJobP99Millis = percentile(coldLats, 0.99)
	doc.WarmJobP50Millis = percentile(warmLats, 0.50)
	doc.WarmJobP99Millis = percentile(warmLats, 0.99)

	cs := cache.Stats()
	doc.HitRate = cs.HitRate()
	doc.Hits, doc.Misses, doc.Shared = cs.Hits, cs.Misses, cs.Shared
	doc.Evictions, doc.Collisions, doc.Analyses = cs.Evictions, cs.Collisions, cs.Analyses
	if cs.Misses > 0 {
		doc.ColdAnalysisMicrosMean = float64(cs.ColdNanos) / 1e3 / float64(cs.Misses)
	}
	if warm := cs.Hits + cs.Shared; warm > 0 {
		doc.WarmLookupMicrosMean = float64(cs.WarmNanos) / 1e3 / float64(warm)
	}
	if doc.WarmLookupMicrosMean > 0 {
		doc.AnalysisSpeedup = doc.ColdAnalysisMicrosMean / doc.WarmLookupMicrosMean
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	cerr := s.Close(ctx)
	cancel()
	if cerr != nil {
		return doc, fmt.Errorf("zipf: close: %w", cerr)
	}

	doc.GrantPath = grantPathBench(cfg.smoke)

	if cfg.minHitRate > 0 && doc.HitRate < cfg.minHitRate {
		return doc, fmt.Errorf("zipf: hit rate %.3f < floor %.3f", doc.HitRate, cfg.minHitRate)
	}
	if cfg.minAnalysisFactor > 0 && doc.AnalysisSpeedup < cfg.minAnalysisFactor {
		return doc, fmt.Errorf("zipf: warm analysis speedup %.1f× < floor %.1f×",
			doc.AnalysisSpeedup, cfg.minAnalysisFactor)
	}
	if cfg.maxReplayP99Ratio > 0 && doc.GrantPath.ReplayP99Micros > cfg.maxReplayP99Ratio*doc.GrantPath.StaticP99Micros {
		return doc, fmt.Errorf("zipf: replay grant p99 %.2fµs > %.2f× static p99 %.2fµs",
			doc.GrantPath.ReplayP99Micros, cfg.maxReplayP99Ratio, doc.GrantPath.StaticP99Micros)
	}
	return doc, nil
}

// grantPathBench measures serial AllocateBatch latency on a wavefront
// dag under the static-policy search vs cursor replay of the same
// IC-optimal order: the warm grant path the cache unlocks.
func grantPathBench(smoke bool) zipfGrantPath {
	size, batch, reps := 32, 8, 10
	if smoke {
		size, reps = 16, 4
	}
	g := mesh.Grid(size, size)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(size, size))
	// One unmeasured warmup pass per path, then interleaved measured
	// passes, so allocator/scheduler drift lands on both paths evenly and
	// the p99 is taken over thousands of calls rather than a few hundred.
	driveGrantPath(g, order, batch, false)
	driveGrantPath(g, order, batch, true)
	var static, replay []float64
	for r := 0; r < reps; r++ {
		static = append(static, driveGrantPath(g, order, batch, false)...)
		replay = append(replay, driveGrantPath(g, order, batch, true)...)
	}
	sort.Float64s(static)
	sort.Float64s(replay)
	gp := zipfGrantPath{
		Family: fmt.Sprintf("wavefront-%d", size), Nodes: g.NumNodes(), Batch: batch,
		StaticP50Micros: percentile(static, 0.50), StaticP99Micros: percentile(static, 0.99),
		ReplayP50Micros: percentile(replay, 0.50), ReplayP99Micros: percentile(replay, 0.99),
	}
	if gp.ReplayP99Micros > 0 {
		gp.ReplaySpeedupP99 = gp.StaticP99Micros / gp.ReplayP99Micros
	}
	return gp
}

// writeZipf writes BENCH_cache.json and prints the human summary.
func writeZipf(doc zipfFile, out string) error {
	if err := benchjson.Write(out, doc, "jobs", "hitRate", "catalog", "grantPath"); err != nil {
		return err
	}
	fmt.Printf("zipf: %d jobs over %d shapes (s=%.1f): hit rate %.3f (%d hits, %d shared, %d misses), %d replay jobs\n",
		doc.Jobs, len(doc.Catalog), doc.ZipfS, doc.HitRate, doc.Hits, doc.Shared, doc.Misses, doc.ReplayJobs)
	fmt.Printf("analysis: cold %.1fµs mean vs warm lookup %.1fµs mean (%.1fx)\n",
		doc.ColdAnalysisMicrosMean, doc.WarmLookupMicrosMean, doc.AnalysisSpeedup)
	fmt.Printf("job latency: cold p50/p99 %.3f/%.3f ms, warm p50/p99 %.3f/%.3f ms\n",
		doc.ColdJobP50Millis, doc.ColdJobP99Millis, doc.WarmJobP50Millis, doc.WarmJobP99Millis)
	gp := doc.GrantPath
	fmt.Printf("grant path (%s, batch %d): static p50/p99 %.2f/%.2f µs, replay p50/p99 %.2f/%.2f µs (p99 %.2fx)\n",
		gp.Family, gp.Batch, gp.StaticP50Micros, gp.StaticP99Micros,
		gp.ReplayP50Micros, gp.ReplayP99Micros, gp.ReplaySpeedupP99)
	if out != "-" {
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// driveGrantPath runs one serial pass over g's order, timing each
// AllocateBatch call in microseconds.
func driveGrantPath(g *dag.Dag, order []dag.NodeID, batch int, useReplay bool) []float64 {
	var srv *icserver.Server
	if useReplay {
		srv = icserver.New(g, schedcache.Replay("IC-CACHED", order), icserver.WithLease(0))
	} else {
		srv = icserver.New(g, heur.Static("IC-OPTIMAL", order), icserver.WithLease(0))
	}
	var times []float64
	for {
		t0 := time.Now()
		b, state := srv.AllocateBatch(batch)
		dt := time.Since(t0)
		if state == icserver.AllocFinished {
			return times
		}
		times = append(times, float64(dt.Nanoseconds())/1e3)
		for _, v := range b {
			if _, err := srv.Complete(v); err != nil {
				return times
			}
		}
		if len(b) == 0 {
			return times // stalled; should not happen serially
		}
	}
}
