package main

// Sharded-coordinator benchmark mode (`loadgen -shards`): one large
// journaled wavefront executed by K shard servers behind one
// coordinator, against the journaled single-server baseline, written
// to BENCH_shard.json.
//
// The methodology note matters on this repo's 1-CPU reference box: no
// configuration can win on lock parallelism alone when GOMAXPROCS=1.
// What sharding buys is stall overlap under durability — a journaled
// server fsyncs its WAL inline under the scheduler lock (every
// SyncEvery appends) and writes O(n) snapshots inline, and on a
// single server every client stalls behind those holds; with K shards
// each journal syncs under its own shard's lock while the other
// shards' grant/report handlers keep the CPU busy.  Both sides of
// every cell here run with identical journaling options, so the
// comparison is durability-for-durability.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"icsched/internal/benchjson"
	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/sched"
	"icsched/internal/shard"
	"icsched/internal/wal"
)

// shardCell is one shard-count cell of BENCH_shard.json.  Shards == 1
// is the plain single-icserver baseline (no coordinator, no bus).
type shardCell struct {
	Shards      int     `json:"shards"`
	WallMillis  float64 `json:"wallMillis"`
	TasksPerSec float64 `json:"tasksPerSec"`
	// Cross-shard traffic: arcs in the cut, credits applied, duplicate
	// forwardings suppressed, and completion-to-credit latency through
	// the journaled bus.
	CrossArcs        int     `json:"crossArcs"`
	ArcsForwarded    int     `json:"arcsForwarded"`
	ArcsDeduplicated int     `json:"arcsDeduplicated"`
	ForwardP50Micros float64 `json:"forwardP50Micros"`
	ForwardP99Micros float64 `json:"forwardP99Micros"`
	// Fleet behavior: batches pulled from non-home shards, stale-epoch
	// resyncs, server-side reissues.
	Steals   int `json:"steals"`
	Resyncs  int `json:"resyncs"`
	Reissues int `json:"reissues"`
	// PerShard is the cut geometry (node and cross-arc counts per
	// shard); empty for the baseline cell.
	PerShard []shard.Stats `json:"perShard,omitempty"`
}

// shardFile is the BENCH_shard.json document.
type shardFile struct {
	Family    string `json:"family"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	Nodes     int    `json:"nodes"`
	Clients   int    `json:"clients"`
	Batch     int    `json:"batch"`
	GoMaxP    int    `json:"gomaxprocs"`
	Smoke     bool   `json:"smoke"`
	Journaled bool   `json:"journaled"`
	Note      string `json:"note"`
	// Headline: the journaled single server vs the best K > 1 cell.
	SingleTasksPerSec  float64     `json:"singleTasksPerSec"`
	ShardedTasksPerSec float64     `json:"shardedTasksPerSec"`
	BestShards         int         `json:"bestShards"`
	Speedup            float64     `json:"speedup"`
	Results            []shardCell `json:"results"`
}

const shardNote = "strict-durability cells (fsync every append, identical wal.Options both " +
	"sides) on GOMAXPROCS=1: sharding wins by overlapping WAL fsync/snapshot stalls — " +
	"each fsync holds one shard's scheduler lock while the runtime hands the CPU to the " +
	"other shards' grant/report handlers — not by lock parallelism"

// shardBenchConfig parameterizes one `loadgen -shards` run (split out
// so tests drive runShardBench directly).
type shardBenchConfig struct {
	clients     int
	batch       int
	smoke       bool
	minSpeedup  float64 // best-K/single floor; 0 disables
	shardCounts []int
	rows, cols  int
	syncEvery   int // fsync cadence for every journal; default 1 (strict)
}

func (c shardBenchConfig) withDefaults() shardBenchConfig {
	if c.batch <= 0 {
		c.batch = 16
	}
	if c.syncEvery <= 0 {
		// Strict durability: every scheduling event is on disk before the
		// response that depends on it.  This is the regime sharding is
		// for — with group commit (SyncEvery 64) journal stalls are a
		// small slice of wall and the coordinator's forwarding overhead
		// wins instead.
		c.syncEvery = 1
	}
	if len(c.shardCounts) == 0 {
		c.shardCounts = []int{1, 2, 4}
		if c.smoke {
			c.shardCounts = []int{1, 4}
		}
	}
	if c.rows == 0 {
		// ≥ 10^5 nodes full-size: the regime where inline journal stalls
		// dominate a single server's wall clock.
		c.rows, c.cols = 320, 320
		if c.smoke {
			c.rows, c.cols = 64, 64
		}
	}
	return c
}

// runShardBench executes the shard-count sweep and enforces the
// speedup floor.
func runShardBench(cfg shardBenchConfig) (shardFile, error) {
	cfg = cfg.withDefaults()
	g := mesh.Grid(cfg.rows, cfg.cols)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(cfg.rows, cfg.cols))
	ref, err := loadgenReference(g, order)
	if err != nil {
		return shardFile{}, fmt.Errorf("shardbench: reference: %w", err)
	}
	doc := shardFile{
		Family: "wavefront", Rows: cfg.rows, Cols: cfg.cols, Nodes: g.NumNodes(),
		Clients: cfg.clients, Batch: cfg.batch,
		GoMaxP: runtime.GOMAXPROCS(0), Smoke: cfg.smoke,
		Journaled: true, Note: shardNote,
	}
	for _, k := range cfg.shardCounts {
		var (
			cell shardCell
			err  error
		)
		if k == 1 {
			cell, err = runShardBaselineCell(g, order, ref, cfg)
		} else {
			cell, err = runShardCell(g, order, ref, k, cfg)
		}
		if err != nil {
			return doc, fmt.Errorf("shardbench: %d-shard cell: %w", k, err)
		}
		doc.Results = append(doc.Results, cell)
		if k == 1 {
			doc.SingleTasksPerSec = cell.TasksPerSec
		} else if cell.TasksPerSec > doc.ShardedTasksPerSec {
			doc.ShardedTasksPerSec = cell.TasksPerSec
			doc.BestShards = cell.Shards
		}
	}
	if doc.SingleTasksPerSec > 0 && doc.ShardedTasksPerSec > 0 {
		doc.Speedup = doc.ShardedTasksPerSec / doc.SingleTasksPerSec
	}
	if cfg.minSpeedup > 0 && doc.Speedup < cfg.minSpeedup {
		return doc, fmt.Errorf("shardbench: best sharded throughput %.0f tasks/s is %.2fx the single-server %.0f tasks/s, floor is %.2fx",
			doc.ShardedTasksPerSec, doc.Speedup, doc.SingleTasksPerSec, cfg.minSpeedup)
	}
	return doc, nil
}

// shardBenchValues returns the FNV value slice and the compute hook for
// one cell.  No mutex: a node's parents complete (and write their
// values) strictly before the server makes the node eligible, and every
// grant travels through the shard's scheduler lock plus an HTTP
// response, so the write of a parent's value happens-before the read by
// its child's compute.
func shardBenchValues(g *dag.Dag) ([]uint64, func(v dag.NodeID)) {
	vals := make([]uint64, g.NumNodes())
	return vals, func(v dag.NodeID) { vals[v] = difftest.NodeValue(g, v, vals) }
}

// runShardBaselineCell measures the journaled single server with the
// batched client fleet — the K=1 reference every shard cell is scored
// against.
func runShardBaselineCell(g *dag.Dag, order []dag.NodeID, ref []uint64, cfg shardBenchConfig) (shardCell, error) {
	dir, err := os.MkdirTemp("", "icsched-shardbench-")
	if err != nil {
		return shardCell{}, err
	}
	defer os.RemoveAll(dir)
	srv, err := icserver.Recover(dir, g, heur.Static("IC-OPTIMAL", order),
		wal.Options{SyncEvery: cfg.syncEvery}, icserver.WithLease(time.Minute))
	if err != nil {
		return shardCell{}, err
	}
	defer srv.Kill()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	httpc := benchTransport(cfg.clients)
	defer httpc.CloseIdleConnections()

	vals, computeNode := shardBenchValues(g)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &icserver.Client{
				BaseURL:     ts.URL,
				HTTP:        httpc,
				Compute:     func(v dag.NodeID, _ string) error { computeNode(v); return nil },
				Batch:       cfg.batch,
				IdleWait:    100 * time.Microsecond,
				IdleWaitMax: time.Millisecond,
				ID:          fmt.Sprintf("shardbench-base-%d", c),
				Seed:        derivedSeed("shardbench-base", c),
			}
			_, errs[c] = cl.Run(ctx)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return shardCell{}, fmt.Errorf("baseline client %d: %w", c, err)
		}
	}
	st := srv.Status()
	if !srv.Finished() || st.Completed != g.NumNodes() {
		return shardCell{}, fmt.Errorf("baseline completed %d of %d", st.Completed, g.NumNodes())
	}
	for v := range ref {
		if vals[v] != ref[v] {
			return shardCell{}, fmt.Errorf("baseline node %d computed %#x, want %#x", v, vals[v], ref[v])
		}
	}
	return shardCell{
		Shards:      1,
		WallMillis:  float64(wall.Microseconds()) / 1000,
		TasksPerSec: float64(g.NumNodes()) / wall.Seconds(),
		Reissues:    st.Reissues,
	}, nil
}

// runShardCell measures one K-shard coordinator cell with the
// home-pinned work-stealing worker fleet.
func runShardCell(g *dag.Dag, order []dag.NodeID, ref []uint64, k int, cfg shardBenchConfig) (shardCell, error) {
	// Row-banded cut: chunks of the row-major topological order keep the
	// diagonal wavefront crossing every shard, so the shards pipeline
	// instead of running one after another (ByLevels on a grid would
	// band by anti-diagonal and serialize them).
	p, err := shard.ByOrder(g, k, g.TopoOrder())
	if err != nil {
		return shardCell{}, err
	}
	dir, err := os.MkdirTemp("", "icsched-shardbench-")
	if err != nil {
		return shardCell{}, err
	}
	defer os.RemoveAll(dir)
	coord, err := shard.New(g, order, p, shard.Config{
		Dir:     dir,
		Lease:   time.Minute,
		WalOpts: wal.Options{SyncEvery: cfg.syncEvery},
	})
	if err != nil {
		return shardCell{}, err
	}
	defer coord.Kill()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	httpc := benchTransport(cfg.clients)
	defer httpc.CloseIdleConnections()

	vals, computeNode := shardBenchValues(g)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	stats := make([]shard.WorkerStats, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &shard.Worker{
				BaseURL: ts.URL,
				HTTP:    httpc,
				Shards:  p.K,
				Home:    c % p.K,
				Compute: func(sh int, task dag.NodeID, _ string) error {
					computeNode(p.Global(sh, task))
					return nil
				},
				Batch:       cfg.batch,
				IdleWait:    100 * time.Microsecond,
				IdleWaitMax: time.Millisecond,
				ID:          fmt.Sprintf("shardbench-%d-%d", k, c),
				Seed:        derivedSeed(fmt.Sprintf("shardbench-%d", k), c),
			}
			stats[c], errs[c] = w.Run(ctx)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c, err := range errs {
		if err != nil {
			return shardCell{}, fmt.Errorf("worker %d: %w", c, err)
		}
	}
	st := coord.Status()
	if !coord.Finished() || st.Completed != g.NumNodes() {
		return shardCell{}, fmt.Errorf("completed %d of %d", st.Completed, g.NumNodes())
	}
	for v := range ref {
		if vals[v] != ref[v] {
			return shardCell{}, fmt.Errorf("node %d computed %#x, want %#x", v, vals[v], ref[v])
		}
	}
	steals, resyncs := 0, 0
	for _, ws := range stats {
		steals += ws.Steals
		resyncs += ws.Resyncs
	}
	// The forwarding-latency handle is shared with the coordinator's
	// registry; help and buckets here are ignored.
	fwd := coord.Metrics().Histogram("icshard_forward_latency_seconds", "", nil)
	return shardCell{
		Shards:           p.K,
		WallMillis:       float64(wall.Microseconds()) / 1000,
		TasksPerSec:      float64(g.NumNodes()) / wall.Seconds(),
		CrossArcs:        len(p.Cross),
		ArcsForwarded:    st.ArcsForwarded,
		ArcsDeduplicated: st.ArcsDeduplicated,
		ForwardP50Micros: 1e6 * fwd.QuantileOr(0.50, 0),
		ForwardP99Micros: 1e6 * fwd.QuantileOr(0.99, 0),
		Steals:           steals,
		Resyncs:          resyncs,
		Reissues:         st.Reissues,
		PerShard:         p.PerShard(),
	}, nil
}

// benchTransport is one pooled transport for a hammering fleet (the
// runCell idiom: http.DefaultClient keeps only two idle connections
// per host, so the fleet would re-dial TCP instead of measuring).
func benchTransport(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * clients,
		MaxIdleConnsPerHost: 2 * clients,
	}}
}

// writeShard writes BENCH_shard.json plus the stdout summary table.
func writeShard(doc shardFile, out string) error {
	if err := benchjson.Write(out, doc, "gomaxprocs", "note", "nodes", "speedup",
		"singleTasksPerSec", "shardedTasksPerSec", "results"); err != nil {
		return err
	}
	fmt.Printf("%-7s %10s %12s %10s %10s %8s %12s %12s\n",
		"SHARDS", "WALL-MS", "TASKS/SEC", "CROSS", "FORWARDED", "STEALS", "FWD-P50-US", "FWD-P99-US")
	for _, r := range doc.Results {
		fmt.Printf("%-7d %10.1f %12.0f %10d %10d %8d %12.1f %12.1f\n",
			r.Shards, r.WallMillis, r.TasksPerSec, r.CrossArcs, r.ArcsForwarded,
			r.Steals, r.ForwardP50Micros, r.ForwardP99Micros)
	}
	fmt.Printf("shard: %d-node wavefront, best %d shards %.0f tasks/s vs single %.0f tasks/s (%.2fx, journaled both sides)\n",
		doc.Nodes, doc.BestShards, doc.ShardedTasksPerSec, doc.SingleTasksPerSec, doc.Speedup)
	if out != "-" {
		fmt.Printf("wrote %s (%d cells)\n", out, len(doc.Results))
	}
	return nil
}
