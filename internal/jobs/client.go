package jobs

import (
	"context"
	"net/http"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
)

// Client is one worker of the shared fleet a multi-tenant job service
// drives.  Unlike the single-dag icserver.Client it never "finishes":
// jobs stream in and out while the fleet stays up, so Run loops until
// its context is cancelled.  Each round it holds a grant from exactly
// one job, computes it, and acks it in one job-scoped POST /report that
// piggybacks the next ask — the reply's grant may come from a DIFFERENT
// job, chosen by the server's weighted-fair policy.
//
// It runs on the icserver worker engine, so transient failures behave
// like the icserver client's: transport errors and 5xx (including the
// typed 503 a mid-recovery service returns) are retried with capped
// exponential backoff + jitter, and a stale-epoch 409 — this job was
// recovered since the grant — resyncs the job's current epoch from GET
// /status and repeats the same report under it, which the recovered job
// applies or absorbs as idempotent duplicates.
type Client struct {
	// BaseURL of the job service.
	BaseURL string
	// HTTP is the transport (defaults to http.DefaultClient).
	HTTP *http.Client
	// Compute executes one task of one job.  A plain error hands the task
	// back in the report's failed set; icserver.ErrCrash makes the worker
	// vanish without reporting (lease expiry recovers the batch).
	Compute func(job string, task dag.NodeID, name string) error
	// Batch caps tasks per grant (default 8); the ask adapts exactly like
	// the icserver batched client (start 1, double on full grant, hold on
	// short, reset on empty).
	Batch int
	// ID is sent as the X-IC-Client header.
	ID string
	// Seed seeds the jitter rng.  Zero assigns the next per-process
	// default seed, shared with the other worker types, so unseeded
	// workers never back off in lockstep.
	Seed int64
	// IdleWait/IdleWaitMax and RetryWait/RetryWaitMax bound the idle and
	// retry backoff (defaults 2ms/250ms and 5ms/500ms).
	IdleWait, IdleWaitMax   time.Duration
	RetryWait, RetryWaitMax time.Duration
	// MaxAttempts bounds tries per request (default 8).
	MaxAttempts int
}

// ClientStats reports one fleet worker's activity.
type ClientStats struct {
	Completed    int // tasks computed and acked done
	Failed       int // tasks handed back after a Compute error
	Batches      int // non-empty grants processed
	IdlePolls    int // /tasks polls that found nothing allocatable
	Retries      int // transient request failures retried
	Resyncs      int // stale-epoch rejections resynced
	JobsFinished int // reports whose ack said the job reached terminal state
}

// Run works the fleet loop until ctx is cancelled (the normal way a
// streaming fleet stops) or an unrecoverable protocol error occurs.
// Context cancellation is reported as ctx.Err(); callers treat it as a
// clean stop.
func (c *Client) Run(ctx context.Context) (ClientStats, error) {
	e := icserver.NewEngine(icserver.Engine{BaseURL: c.BaseURL, HTTP: c.HTTP, ID: c.ID, Seed: c.Seed,
		IdleWait: c.IdleWait, IdleWaitMax: c.IdleWaitMax, RetryWait: c.RetryWait,
		RetryWaitMax: c.RetryWaitMax, MaxAttempts: c.MaxAttempts, Batch: c.Batch}, 8)
	r := &icserver.Route{Compute: c.Compute,
		Report: func(job string, done, failed []dag.NodeID, k int, epoch uint64) any {
			return reportRequest{Job: job, Epoch: epoch, Done: done, Failed: failed, K: k}
		}}
	err := e.Run(ctx, func() (bool, bool, error) {
		moved, _, err := e.Drain(ctx, r)
		return moved, false, err // the service never finishes
	})
	s := e.Stats
	return ClientStats{Completed: s.Completed, Failed: s.Failed, Batches: s.Batches, IdlePolls: s.IdlePolls,
		Retries: s.Retries, Resyncs: s.Resyncs, JobsFinished: e.JobsFinished}, err
}
