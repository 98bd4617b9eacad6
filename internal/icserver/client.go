package icserver

import (
	"context"
	"errors"
	"net/http"
	"time"

	"icsched/internal/dag"
)

// Client is a remote IC client: it polls the server for work, runs the
// task function, and reports completions, until the server says the
// computation is finished.
//
// The client survives the transient failures of a real network: /task and
// /done requests that fail in transit or return 5xx are retried with
// exponential backoff and jitter — crucially, a failed /done is retried
// for the same task (resuming the in-flight task) rather than abandoning
// it, and the server's idempotent completion absorbs duplicates when only
// the response was lost.  A Compute error hands the task back to the
// server via POST /failed and the client moves on to other work.
type Client struct {
	// BaseURL of the server (e.g. an httptest.Server URL).
	BaseURL string
	// HTTP is the transport (defaults to http.DefaultClient).
	HTTP *http.Client
	// Compute executes one task.  A plain error hands the task back via
	// /failed; ErrCrash makes the client vanish without reporting.
	Compute func(task dag.NodeID, name string) error
	// IdleWait is the initial sleep when the server has nothing eligible
	// (default 2ms).  Consecutive idle polls back off exponentially with
	// jitter up to IdleWaitMax, so large idle fleets neither busy-poll
	// nor synchronize-hammer the server.
	IdleWait time.Duration
	// IdleWaitMax caps the idle backoff (default 250ms).
	IdleWaitMax time.Duration
	// RetryWait is the initial backoff after a transient request failure
	// (default 5ms), growing exponentially with jitter up to RetryWaitMax.
	RetryWait time.Duration
	// RetryWaitMax caps the retry backoff (default 500ms).
	RetryWaitMax time.Duration
	// MaxAttempts bounds tries per request, first included (default 8);
	// when exhausted Run returns the last error.
	MaxAttempts int
	// Batch switches the client to the batched wire protocol (POST /tasks
	// + POST /report) with this cap on tasks per grant.  Zero (or
	// negative) keeps the legacy one-task-per-round-trip protocol.  The
	// batched client keeps a local task queue: it computes every granted
	// task, then acks the whole batch — completions and failures mixed —
	// in one /report, so the scheduler lock and the HTTP round-trip are
	// amortized over the batch.  The ask is sized adaptively: it starts at
	// 1, doubles after every full grant up to Batch, holds steady on a
	// short grant (the server clamps over-asks to the eligible prefix, so
	// a big ask costs nothing), and resets to 1 after an empty grant so an
	// idle client probes gently.
	Batch int
	// ID names this client.  It is sent as the X-IC-Client header on
	// every POST so server-side traces attribute events per client.
	ID string
	// Seed seeds the jitter rng.  Zero assigns the next per-process
	// default seed (shared with jobs.Client and shard.Worker), so even an
	// unconfigured fleet backs off deterministically run to run; harnesses
	// that replay faults (internal/chaos) set explicit per-client seeds.
	Seed int64
}

// Stats reports one client's activity.
type Stats struct {
	// Completed counts tasks this client computed and reported done.
	Completed int
	// IdlePolls counts /task polls that found nothing eligible.
	IdlePolls int
	// Retries counts transient request failures that were retried.
	Retries int
	// Failed counts tasks handed back (via /failed, or in a /report
	// batch) after a Compute error.
	Failed int
	// Batches counts /tasks grants that returned at least one task
	// (always zero under the legacy protocol).
	Batches int
	// Resyncs counts stale-epoch rejections handled: the server restarted
	// under a bumped fencing token and the client re-read the epoch (GET
	// /status) and re-sent its report under it.
	Resyncs int
}

// Run loops until the computation finishes, the context is cancelled,
// retries are exhausted, or Compute crashes.  With Batch > 0 each step
// drains the batched protocol; otherwise it is one legacy /task round.
func (c *Client) Run(ctx context.Context) (Stats, error) {
	e := NewEngine(Engine{BaseURL: c.BaseURL, HTTP: c.HTTP, ID: c.ID, Seed: c.Seed,
		IdleWait: c.IdleWait, IdleWaitMax: c.IdleWaitMax, RetryWait: c.RetryWait,
		RetryWaitMax: c.RetryWaitMax, MaxAttempts: c.MaxAttempts, Batch: c.Batch}, 0)
	r := &Route{}
	if c.Compute != nil {
		r.Compute = func(_ string, v dag.NodeID, name string) error { return c.Compute(v, name) }
	}
	step := func() (bool, bool, error) { return e.Drain(ctx, r) }
	if c.Batch <= 0 {
		step = func() (bool, bool, error) { return legacyStep(ctx, e, r) }
	}
	err := e.Run(ctx, step)
	return e.Stats, err
}

// legacyStep is one round of the single-task protocol: POST /task, then
// report the task on /done, or hand it back early on /failed after a
// Compute error so the server requeues it now instead of waiting out the
// lease.  The report carries the grant's fencing epoch and is re-sent
// across epoch bumps like a batched one.
func legacyStep(ctx context.Context, e *Engine, r *Route) (moved, finished bool, err error) {
	code, body, err := e.postRetry(ctx, "/task", nil)
	switch {
	case err != nil:
		return false, false, err
	case code == http.StatusNoContent:
		return false, false, nil // nothing eligible
	case code == http.StatusGone:
		return false, true, nil
	}
	var t taskResponse
	if err := decode("/task", code, body, &t); err != nil {
		return false, false, err
	}
	if t.Epoch != 0 {
		r.epoch = t.Epoch
	}
	path := "/done"
	if err := r.compute("", t); errors.Is(err, ErrCrash) {
		return true, false, err // vanish: no report, lease expiry recovers
	} else if err != nil {
		path = "/failed"
	}
	if err := e.ack(ctx, r, path, "", nil, func(epoch uint64) any {
		return doneRequest{Task: t.Task, Epoch: epoch}
	}); err != nil {
		return true, false, err
	}
	if path == "/done" {
		e.Stats.Completed++
	} else {
		e.Stats.Failed++
	}
	return true, false, nil
}

// FetchStatus reads the server's progress snapshot.
func FetchStatus(ctx context.Context, httpc *http.Client, baseURL string) (Status, error) {
	var st Status
	if _, err := getJSON(ctx, httpc, baseURL+"/status", &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// FetchHealth reads the server's /healthz state, reporting the HTTP
// status code alongside the payload (503 while draining).
func FetchHealth(ctx context.Context, httpc *http.Client, baseURL string) (status string, code int, err error) {
	var h healthResponse
	code, err = getJSON(ctx, httpc, baseURL+"/healthz", &h)
	return h.Status, code, err
}
