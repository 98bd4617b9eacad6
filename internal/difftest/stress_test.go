package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/faults"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/obs"
	"icsched/internal/sched"
)

// TestServerStressConcurrentClients hammers the real HTTP surface of the
// IC server with a concurrent client fleet — the -race half of the
// differential harness.  Beyond surviving the race detector, the run
// must produce the reference values bit-for-bit, complete every task
// exactly once, and leave a trace whose reconstructed eligibility
// profile equals sched.Profile of the realized completion order: the
// same cross-layer invariant the serial passes check, under full
// concurrency.
func TestServerStressConcurrentClients(t *testing.T) {
	const clients = 8
	rng := rand.New(rand.NewSource(5))
	g := dag.RandomLayered(rng, []int{6, 10, 10, 8, 6}, 3)
	ref := refValues(g)
	tr := obs.NewTrace()
	srv := icserver.New(g, heur.Static("stress", randomLegalOrder(rng, g, new(sched.State))),
		icserver.WithLease(0), icserver.WithTrace(tr))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	vals := make([]uint64, g.NumNodes())
	seen := make([]int, g.NumNodes())
	compute := func(v dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		seen[v]++
		vals[v] = NodeValue(g, v, vals)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	completed := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &icserver.Client{
				BaseURL: ts.URL,
				Compute: compute,
				ID:      fmt.Sprintf("stress-%d", c),
				Seed:    int64(c + 1),
			}
			st, err := cl.Run(ctx)
			errs[c], completed[c] = err, st.Completed
		}(c)
	}
	wg.Wait()

	total := 0
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		total += completed[c]
	}
	if total != g.NumNodes() {
		t.Fatalf("fleet completed %d tasks, want %d", total, g.NumNodes())
	}
	if !srv.Finished() {
		t.Fatal("server not finished after fleet drained")
	}
	st := srv.Status()
	if st.Completed != g.NumNodes() || st.Reissues != 0 || st.Quarantined != 0 {
		t.Fatalf("status %+v after clean stress run", st)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("task %d computed %d times (lease disabled: want exactly once)", v, c)
		}
	}
	if err := equalValues(vals, ref); err != nil {
		t.Fatalf("fleet values diverged from reference: %v", err)
	}

	done := completions(tr)
	if err := sched.Validate(g, done); err != nil {
		t.Fatalf("completion order illegal: %v", err)
	}
	want, err := sched.Profile(g, done)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := tr.EligibilityProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(prof, want) {
		t.Fatalf("trace profile %v, model profile of completion order %v", prof, want)
	}
}

// TestServerStressConcurrentBatchedChaos is the batched-protocol half of
// the -race stress lane: 16 batching clients under injected faults
// (crashes mid-batch, dropped responses, synthetic 500s) plus poison
// tasks that always fail, against a short lease and a low quarantine
// threshold.  The run must reach a terminal state — possibly degraded —
// in bounded time, and the server trace must account for every
// unfinished task: each one either quarantined itself or blocked behind
// a quarantined ancestor, with the completed remainder computing the
// reference FNV values bit for bit.
func TestServerStressConcurrentBatchedChaos(t *testing.T) {
	const clients = 16
	rng := rand.New(rand.NewSource(23))
	g := dag.RandomLayered(rng, []int{8, 12, 12, 12, 8}, 3)
	n := g.NumNodes()
	ref := refValues(g)
	tr := obs.NewTrace()
	srv := icserver.New(g, heur.Static("stress-batched", randomLegalOrder(rng, g, new(sched.State))),
		icserver.WithLease(40*time.Millisecond), icserver.WithMaxAttempts(3),
		icserver.WithTrace(tr))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plan := faults.NewPlan(23, faults.Rates{
		Crash:        0.04,
		DropResponse: 0.05,
		HTTPError:    0.05,
	})
	poison := func(v dag.NodeID) bool { return v%11 == 5 }

	var mu sync.Mutex
	vals := make([]uint64, n)
	computed := make([]bool, n)
	compute := func(v dag.NodeID, _ string) error {
		if poison(v) {
			return fmt.Errorf("stress: %w", faults.ErrInjected)
		}
		if plan.Decide(faults.Crash) {
			return icserver.ErrCrash
		}
		mu.Lock()
		defer mu.Unlock()
		// Recomputation after a lease reissue is idempotent: parent
		// values are final once written (parents completed first).
		vals[v] = NodeValue(g, v, vals)
		computed[v] = true
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for respawn := 0; ; respawn++ {
				cl := &icserver.Client{
					BaseURL:   ts.URL,
					HTTP:      &http.Client{Transport: plan.Transport(nil)},
					Compute:   compute,
					Batch:     4,
					IdleWait:  time.Millisecond,
					RetryWait: time.Millisecond,
					ID:        fmt.Sprintf("stress-batched-%d.%d", c, respawn),
					Seed:      int64(c*100 + respawn + 1),
				}
				_, err := cl.Run(ctx)
				if errors.Is(err, icserver.ErrCrash) {
					continue // respawn: abandoned leases expire and reissue
				}
				errs[c] = err
				return
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if !srv.Finished() {
		t.Fatalf("fleet drained but server not terminal: %+v", srv.Status())
	}
	st := srv.Status()
	if st.Quarantined == 0 {
		t.Fatalf("poison tasks never quarantined: %+v", st)
	}
	if st.Allocated != 0 {
		t.Fatalf("terminal state with %d leases outstanding: %+v", st.Allocated, st)
	}

	// Degraded accounting from the trace: completion state per task, with
	// a post-quarantine completion counting as a rescue.
	done := make([]bool, n)
	quarantined := make([]bool, n)
	for _, ev := range tr.Events() {
		switch ev.Phase {
		case obs.PhaseDone:
			done[ev.Task] = true
			quarantined[ev.Task] = false
		case obs.PhaseQuarantine:
			quarantined[ev.Task] = true
		}
	}
	blocked := make([]bool, n)
	for v := 0; v < n; v++ {
		if quarantined[v] {
			blocked[v] = true
			for u, r := range g.Reachable(dag.NodeID(v)) {
				if r {
					blocked[u] = true
				}
			}
		}
	}
	countDone := 0
	for v := 0; v < n; v++ {
		if done[v] {
			countDone++
			if !computed[dag.NodeID(v)] && !poison(dag.NodeID(v)) {
				t.Fatalf("task %d reported done but never computed", v)
			}
			if vals[v] != ref[v] && !poison(dag.NodeID(v)) {
				t.Fatalf("task %d computed %#x, want %#x", v, vals[v], ref[v])
			}
			continue
		}
		if !blocked[v] {
			t.Fatalf("task %d incomplete but not blocked by any quarantine: %+v", v, st)
		}
	}
	if countDone != st.Completed {
		t.Fatalf("trace says %d done, status says %d", countDone, st.Completed)
	}
}
