package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/exec"
	"icsched/internal/faults"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/mesh"
	"icsched/internal/obs"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// fnvReference computes the uncrashed ground truth with the serial
// in-process executor — the crashed-and-recovered fleet must match it
// bit for bit.
func fnvReference(g *dag.Dag, order []dag.NodeID) ([]uint64, error) {
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

// ServerKill is the crash-safe-server proof lane: a size×size grid
// wavefront (the §4 dynamic-programming wavefront at benchmark scale)
// runs through the HTTP task server while the server itself is killed —
// the in-process stand-in for SIGKILL: no drain, no final journal
// flush — and restarted from its write-ahead journal `kills` times at
// seeded completion thresholds (faults.KillPoints).  Clients ride out
// each restart on their transient-retry backoff and resume under the
// bumped epoch, re-sending reports the dead incarnation never acked.
//
// The run must end with: every task completed exactly once across all
// incarnations, FNV node values bit-identical to the uncrashed serial
// exec.Run reference, zero quarantined tasks, final epoch = kills + 1,
// and the journal's done-record order replaying (sched.Profile) to
// exactly the eligibility profile the shared obs trace reconstructs —
// the durable log and the observability layer tell the same story.
func ServerKill(cfg Config, size, kills int) (Report, error) {
	cfg = cfg.withDefaults()
	if size < 2 {
		return Report{}, fmt.Errorf("chaos: server-kill grid size %d < 2", size)
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

	dir, err := os.MkdirTemp("", "icsched-chaos-wal-")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)

	// Compaction is off so the journal keeps the complete done-record
	// history: the post-run audit replays it into sched.Profile and
	// matches the trace reconstruction.  (Snapshot-based recovery has its
	// own tests in internal/icserver.)
	wopts := wal.Options{SnapshotEvery: -1}

	// One trace shared by every incarnation: only the first records the
	// run start, so the eligibility profile stays reconstructible.
	tr := obs.NewTrace()
	var (
		srv *icserver.Server
		smu sync.Mutex
	)
	current := func() *icserver.Server {
		smu.Lock()
		defer smu.Unlock()
		return srv
	}

	// With the relaxed core, kills are armed on the pop hook: the next
	// lock-free shard claim kills the incarnation before its grant reaches
	// the journal, so recovery must re-derive the popped task as eligible.
	var (
		armed atomic.Int32
		fmu   sync.Mutex
		fired chan struct{}
	)
	popHook := func(dag.NodeID) {
		if armed.CompareAndSwap(1, 0) {
			current().Kill() // dies mid-window: claimed, never journaled
			fmu.Lock()
			if fired != nil {
				close(fired)
				fired = nil
			}
			fmu.Unlock()
		}
	}
	newServer := func() (*icserver.Server, error) {
		opts := []icserver.Option{
			icserver.WithLease(cfg.Lease),
			icserver.WithMaxAttempts(cfg.MaxAttempts),
			icserver.WithTrace(tr),
		}
		if cfg.Relaxed > 0 {
			opts = append(opts,
				icserver.WithRelaxed(cfg.Relaxed),
				icserver.WithRelaxedPopHook(popHook))
		}
		return icserver.Recover(dir, g, heur.Static("IC-OPTIMAL", order), wopts, opts...)
	}
	srv, err = newServer()
	if err != nil {
		return Report{}, err
	}

	// The fleet talks to one stable address; the handler behind it is
	// swapped atomically across incarnations (boxed: atomic.Value needs a
	// consistent concrete type), with a 503 stub standing in while the
	// server is down so clients fall into their 5xx backoff.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{srv.Handler()})
	down := handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "icserver: restarting from journal", http.StatusServiceUnavailable)
	})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var cmu sync.Mutex
	vals := make([]uint64, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		cmu.Lock()
		defer cmu.Unlock()
		vals[v] = difftest.NodeValue(g, v, vals)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	start := time.Now()

	// The killer: at each seeded completion threshold, cut the fleet over
	// to the 503 stub, kill the incarnation (everything un-journaled dies
	// with it), recover a successor from the journal, and swap it in.
	points := faults.KillPoints(cfg.Seed, kills, g.NumNodes())
	killErr := make(chan error, 1)
	var killedCount atomic.Int64
	go func() {
		for _, pt := range points {
			for current().Status().Completed < pt {
				if ctx.Err() != nil {
					killErr <- ctx.Err()
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			if cfg.Relaxed > 0 {
				// Arm the mid-window trigger and wait for a pop to trip it.
				ch := make(chan struct{})
				fmu.Lock()
				fired = ch
				fmu.Unlock()
				armed.Store(1)
				select {
				case <-ch:
				case <-time.After(2 * time.Second):
					// Endgame with nothing left to pop: disarm and kill
					// directly — unless the hook won the race, then wait.
					if armed.CompareAndSwap(1, 0) {
						current().Kill()
					} else {
						<-ch
					}
				case <-ctx.Done():
					killErr <- ctx.Err()
					return
				}
				handler.Store(down)
			} else {
				handler.Store(down)
				current().Kill()
			}
			next, err := newServer()
			if err != nil {
				killErr <- fmt.Errorf("chaos: recovery after kill %d: %w", killedCount.Load()+1, err)
				return
			}
			smu.Lock()
			srv = next
			smu.Unlock()
			handler.Store(handlerBox{next.Handler()})
			killedCount.Add(1)
		}
		killErr <- nil
	}()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats icserver.Stats
		errs  = make([]error, cfg.Clients)
	)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &icserver.Client{
				BaseURL: ts.URL,
				Compute: compute,
				// Patience for restarts: the default 8 attempts could burn
				// out inside one kill/recover window, so the retry budget
				// is raised and the backoff cap kept short.
				MaxAttempts:  25,
				IdleWait:     time.Millisecond,
				RetryWait:    time.Millisecond,
				RetryWaitMax: 100 * time.Millisecond,
				Batch:        cfg.Batch,
				ID:           fmt.Sprintf("kill-client-%d", i),
				Seed:         clientSeed(cfg.Seed, i, 0),
			}
			st, err := c.Run(ctx)
			mu.Lock()
			stats.Completed += st.Completed
			stats.Retries += st.Retries
			stats.Failed += st.Failed
			stats.Resyncs += st.Resyncs
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
			return Report{}, fmt.Errorf("chaos: server-kill client %d: %w", i, err)
		}
	}

	final := current()
	st := final.Status()
	rep := Report{
		Workload:    "wavefront-kill",
		Tasks:       st.Total,
		Completed:   st.Completed,
		HandBacks:   st.Failed,
		Retries:     stats.Retries,
		Reissues:    st.Reissues,
		Quarantined: st.Quarantined,
		Kills:       int(killedCount.Load()),
		Resyncs:     stats.Resyncs,
		Elapsed:     time.Since(start),
	}
	if !final.Finished() || st.Completed != st.Total {
		return rep, fmt.Errorf("chaos: server-kill run incomplete: %d/%d tasks", st.Completed, st.Total)
	}
	if st.Quarantined != 0 {
		return rep, fmt.Errorf("chaos: server-kill run quarantined %d tasks", st.Quarantined)
	}
	if rep.Kills != len(points) {
		return rep, fmt.Errorf("chaos: %d of %d scheduled kills fired", rep.Kills, len(points))
	}
	if want := uint64(rep.Kills) + 1; st.Epoch != want {
		return rep, fmt.Errorf("chaos: final epoch %d after %d kills, want %d", st.Epoch, rep.Kills, want)
	}

	// Close the journal cleanly, then audit it end to end.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), cfg.Lease+5*time.Second)
	defer sdCancel()
	if err := final.Shutdown(sdCtx); err != nil {
		return rep, fmt.Errorf("chaos: server-kill shutdown: %w", err)
	}
	for v, want := range ref {
		if vals[v] != want {
			return rep, fmt.Errorf("chaos: node %d computed %#x, want %#x (exec.Run reference)", v, vals[v], want)
		}
	}
	if err := auditJournal(dir, g, tr); err != nil {
		return rep, err
	}
	if cfg.Trace != nil {
		for _, ev := range tr.Events() {
			cfg.Trace.RecordAt(ev)
		}
	}
	return rep, nil
}

// auditJournal replays the full (uncompacted) journal of a ServerKill
// run and cross-checks it against the shared trace: every task has
// exactly one done record, the done order is a legal schedule, and its
// sched.Profile equals the trace's reconstructed eligibility profile.
func auditJournal(dir string, g *dag.Dag, tr *obs.Trace) error {
	rec, err := wal.ReadAll(dir)
	if err != nil {
		return fmt.Errorf("chaos: journal audit: %w", err)
	}
	var doneOrder []dag.NodeID
	for _, r := range rec.Records {
		if r.Kind == wal.KindDone {
			doneOrder = append(doneOrder, dag.NodeID(r.Task))
		}
	}
	if len(doneOrder) != g.NumNodes() {
		return fmt.Errorf("chaos: journal holds %d done records for %d tasks", len(doneOrder), g.NumNodes())
	}
	prof, err := sched.Profile(g, doneOrder)
	if err != nil {
		return fmt.Errorf("chaos: journal done order is not a legal schedule: %w", err)
	}
	traced, err := tr.EligibilityProfile()
	if err != nil {
		return fmt.Errorf("chaos: trace reconstruction: %w", err)
	}
	if len(prof) != len(traced) {
		return fmt.Errorf("chaos: journal profile has %d points, trace %d", len(prof), len(traced))
	}
	for t := range prof {
		if prof[t] != traced[t] {
			return fmt.Errorf("chaos: eligibility profile diverges at completion %d: journal %d, trace %d",
				t, prof[t], traced[t])
		}
	}
	return nil
}
