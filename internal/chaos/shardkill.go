package chaos

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/faults"
	"icsched/internal/mesh"
	"icsched/internal/sched"
	"icsched/internal/shard"
)

// ShardKill is the sharded-coordinator crash lane: a size×size grid
// wavefront is cut into `shards` schedule-guided components and
// executed by a shard.Coordinator over HTTP with a home-pinned,
// work-stealing worker fleet, while individual shards are killed — no
// drain, no final journal flush — and recovered from their own
// journals at seeded completion thresholds (faults.KillPoints,
// rotating the victim shard).  The bus re-delivers every forwarded
// cross-shard credit to the recovered incarnation, receiving shards
// deduplicate, and the fleet rides each kill out by stealing from the
// surviving shards.
//
// The run must end with: every task completed, FNV node values
// bit-identical to the uncrashed serial exec.Run reference, zero
// quarantined tasks, and every victim shard's epoch bumped past its
// pre-kill value.
func ShardKill(cfg Config, size, shards, kills int) (Report, error) {
	cfg = cfg.withDefaults()
	if size < 2 {
		return Report{}, fmt.Errorf("chaos: shard-kill grid size %d < 2", size)
	}
	if shards < 2 || shards > shard.MaxShards {
		return Report{}, fmt.Errorf("chaos: shard-kill shard count %d out of range [2, %d]", shards, shard.MaxShards)
	}
	if kills < 0 {
		kills = 0
	}
	g := mesh.Grid(size, size)
	order := sched.Complete(g, mesh.GridDiagonalNonsinks(size, size))
	ref, err := fnvReference(g, order)
	if err != nil {
		return Report{}, err
	}
	// Row-banded cut (chunks of the row-major topological order): the
	// wavefront crosses every band, so all shards stay busy and every
	// kill lands on a shard with live cross-arc traffic.
	p, err := shard.ByOrder(g, shards, g.TopoOrder())
	if err != nil {
		return Report{}, err
	}

	dir, err := os.MkdirTemp("", "icsched-chaos-shard-")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)

	coord, err := shard.New(g, order, p, shard.Config{
		Dir:         dir,
		Lease:       cfg.Lease,
		MaxAttempts: cfg.MaxAttempts,
	})
	if err != nil {
		return Report{}, err
	}
	defer coord.Kill()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var cmu sync.Mutex
	vals := make([]uint64, g.NumNodes())
	compute := func(sh int, task dag.NodeID, _ string) error {
		gv := p.Global(sh, task)
		cmu.Lock()
		defer cmu.Unlock()
		vals[gv] = difftest.NodeValue(g, gv, vals)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	start := time.Now()

	// The killer: at each seeded completion threshold, SIGKILL one shard
	// (rotating victims), then recover it from its journal.  Workers in
	// the kill window hit the dead incarnation's 503, steal from the
	// survivors, and come back.
	points := faults.KillPoints(cfg.Seed, kills, g.NumNodes())
	killErr := make(chan error, 1)
	killed := 0
	go func() {
		for ki, pt := range points {
			for coord.Status().Completed < pt {
				if ctx.Err() != nil {
					killErr <- ctx.Err()
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			victim := ki % p.K
			before := coord.Server(victim).Epoch()
			coord.KillShard(victim)
			if err := coord.RecoverShard(victim); err != nil {
				killErr <- fmt.Errorf("chaos: recover shard %d after kill %d: %w", victim, ki+1, err)
				return
			}
			if after := coord.Server(victim).Epoch(); after <= before {
				killErr <- fmt.Errorf("chaos: shard %d epoch %d -> %d after kill %d: recovery did not fence",
					victim, before, after, ki+1)
				return
			}
			killed++
		}
		killErr <- nil
	}()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fleet shard.WorkerStats
		errs  = make([]error, cfg.Clients)
	)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &shard.Worker{
				BaseURL: ts.URL,
				Shards:  p.K,
				Home:    i % p.K,
				Compute: compute,
				Batch:   cfg.Batch,
				// Patience for kill windows: enough retries to ride a
				// recovery out, short backoff cap to come back quickly.
				MaxAttempts:  12,
				IdleWait:     time.Millisecond,
				RetryWait:    time.Millisecond,
				RetryWaitMax: 50 * time.Millisecond,
				ID:           fmt.Sprintf("shard-kill-client-%d", i),
				Seed:         clientSeed(cfg.Seed, i, 0),
			}
			st, err := w.Run(ctx)
			mu.Lock()
			fleet.Completed += st.Completed
			fleet.Steals += st.Steals
			fleet.Retries += st.Retries
			fleet.Resyncs += st.Resyncs
			fleet.Failed += st.Failed
			fleet.Dropped += st.Dropped
			mu.Unlock()
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if err := <-killErr; err != nil {
		return Report{}, err
	}
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("chaos: shard-kill client %d: %w", i, err)
		}
	}

	st := coord.Status()
	rep := Report{
		Workload:    "shard-kill",
		Tasks:       st.Total,
		Completed:   st.Completed,
		HandBacks:   fleet.Failed,
		Retries:     fleet.Retries,
		Reissues:    st.Reissues,
		Quarantined: st.Quarantined,
		Kills:       killed,
		Resyncs:     fleet.Resyncs,
		Elapsed:     time.Since(start),
	}
	if !coord.Finished() || st.Completed != st.Total {
		return rep, fmt.Errorf("chaos: shard-kill run incomplete: %d/%d tasks", st.Completed, st.Total)
	}
	if st.Quarantined != 0 {
		return rep, fmt.Errorf("chaos: shard-kill run quarantined %d tasks", st.Quarantined)
	}
	if rep.Kills != len(points) {
		return rep, fmt.Errorf("chaos: %d of %d scheduled shard kills fired", rep.Kills, len(points))
	}
	if st.ArcsForwarded < len(p.Cross) {
		return rep, fmt.Errorf("chaos: %d cross-shard credits applied, cut has %d arcs", st.ArcsForwarded, len(p.Cross))
	}
	sdCtx, sdCancel := context.WithTimeout(context.Background(), cfg.Lease+5*time.Second)
	defer sdCancel()
	if err := coord.Shutdown(sdCtx); err != nil {
		return rep, fmt.Errorf("chaos: shard-kill shutdown: %w", err)
	}
	for v, want := range ref {
		if vals[v] != want {
			return rep, fmt.Errorf("chaos: node %d computed %#x, want %#x (exec.Run reference)", v, vals[v], want)
		}
	}
	return rep, nil
}
