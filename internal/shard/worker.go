package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
)

// Worker is a shard-aware IC client: it is pinned to a home shard —
// polling it first for every batch, so the steady state keeps each
// shard's cache-warm fleet local — and steals work from the other
// shards round-robin when the home frontier runs dry (the wavefront
// may simply be elsewhere in the dag).  It speaks the batched
// icserver wire protocol against a Coordinator's /shard/<i>/ mounts
// through the icserver worker engine, with one route — adaptive ask
// and fencing epoch — per shard, resyncing per shard after a
// kill/recover bump.
type Worker struct {
	// BaseURL of the coordinator (e.g. an httptest.Server URL).
	BaseURL string
	// HTTP is the transport (defaults to http.DefaultClient).
	HTTP *http.Client
	// Shards is the coordinator's shard count; Home in [0, Shards) is
	// this worker's pinned shard.
	Shards int
	Home   int
	// Compute executes one task, identified by its owning shard, its
	// shard-local ID, and its global name (shard dags label nodes with
	// the global names).  A plain error hands the task back; ErrCrash
	// (icserver.ErrCrash) makes the worker vanish without reporting.
	Compute func(shard int, task dag.NodeID, name string) error
	// Batch caps tasks per grant (default 16); the ask adapts like the
	// single-server batched client.
	Batch int
	// ID names the worker for the X-IC-Client header.
	ID string
	// Seed seeds backoff jitter (0 picks the next process-wide default,
	// shared with the other worker types).
	Seed int64

	IdleWait     time.Duration // initial idle backoff (default 2ms)
	IdleWaitMax  time.Duration // idle backoff cap (default 250ms)
	RetryWait    time.Duration // initial transient-failure backoff (default 5ms)
	RetryWaitMax time.Duration // retry backoff cap (default 500ms)
	MaxAttempts  int           // tries per request (default 8)
}

// WorkerStats reports one worker's activity.
type WorkerStats struct {
	// Completed counts tasks computed and acked done.
	Completed int
	// Failed counts tasks handed back after a Compute error.
	Failed int
	// Batches counts grants that returned at least one task.
	Batches int
	// Steals counts batches pulled from a non-home shard.
	Steals int
	// IdlePolls counts full sweeps (home + every other shard) that
	// found nothing to do.
	IdlePolls int
	// Retries counts transient request failures retried.
	Retries int
	// Resyncs counts per-shard stale-epoch recoveries.
	Resyncs int
	// Dropped counts computed-but-unacked tasks abandoned because a
	// shard stayed unreachable past the retry budget (lease expiry
	// re-grants them; completion is idempotent).
	Dropped int
}

// Run loops until every shard reports finished, the context is
// cancelled, or Compute crashes.  Each step sweeps the shards from home
// and drains the first one with work; a shard that stays unreachable
// past the retry budget is skipped (its unacked batch counted Dropped)
// and retried on a later sweep.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	if w.Shards < 1 || w.Home < 0 || w.Home >= w.Shards {
		return WorkerStats{}, fmt.Errorf("shard: worker home %d out of range [0, %d)", w.Home, w.Shards)
	}
	e := icserver.NewEngine(icserver.Engine{BaseURL: w.BaseURL, HTTP: w.HTTP, ID: w.ID, Seed: w.Seed,
		IdleWait: w.IdleWait, IdleWaitMax: w.IdleWaitMax, RetryWait: w.RetryWait,
		RetryWaitMax: w.RetryWaitMax, MaxAttempts: w.MaxAttempts, Batch: w.Batch}, 16)
	routes := make([]*icserver.Route, w.Shards)
	for s := range routes {
		routes[s] = &icserver.Route{Prefix: fmt.Sprintf("/shard/%d", s)}
		if w.Compute != nil {
			routes[s].Compute = func(_ string, v dag.NodeID, name string) error { return w.Compute(s, v, name) }
		}
	}
	finished := make([]bool, w.Shards)
	steals := 0
	err := e.Run(ctx, func() (bool, bool, error) {
		for t := 0; t < w.Shards; t++ {
			s := (w.Home + t) % w.Shards
			if finished[s] {
				continue
			}
			moved, fin, err := e.Drain(ctx, routes[s])
			finished[s] = fin
			if errors.Is(err, icserver.ErrUnreachable) {
				continue // killed or mid-recovery: try the other shards, come back
			}
			if err != nil {
				return false, false, err
			}
			if moved {
				if t != 0 {
					steals++
				}
				return true, false, nil // back to home preference for the next batch
			}
		}
		return false, !slices.Contains(finished, false), nil
	})
	s := e.Stats
	return WorkerStats{Completed: s.Completed, Failed: s.Failed, Batches: s.Batches, Steals: steals,
		IdlePolls: s.IdlePolls, Retries: s.Retries, Resyncs: s.Resyncs, Dropped: e.Dropped}, err
}
