package icserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
)

// ErrCrash, when returned by a Compute function, makes the client vanish
// immediately without reporting anything to the server — simulating a
// crashed client, whose tasks the server recovers via lease expiry.  Used
// by fault-injection harnesses.
var ErrCrash = errors.New("icserver: client crashed")

// ErrUnreachable marks a request whose retry budget ran out: the server
// stayed down (transport errors or 5xx) for every attempt.  The wrapped
// error carries the last failure.
var ErrUnreachable = errors.New("icserver: server unreachable")

// seedSeq hands out default jitter seeds: the n-th engine that first
// jitters without an explicit Seed gets seed n, whichever client type
// runs it.  A process that builds its fleet in a fixed order therefore
// backs off identically on every run.
var seedSeq atomic.Int64

// sleep is the engine's backoff wait (a variable so tests can observe
// the jittered durations).
var sleep = sleepCtx

// Engine is the one worker loop behind Client, jobs.Client and
// shard.Worker — the paper's client protocol: ask for ELIGIBLE tasks,
// compute them, report back.  It owns the backoff and jitter policy,
// POST with retries, the adaptive ask, compute-then-ack of a batch and
// stale-epoch resync; the three clients differ only in their Route and
// in how they sequence Drain steps.  Build one per run with NewEngine;
// an Engine is not safe for concurrent use.
type Engine struct {
	// BaseURL, HTTP, ID, Seed, IdleWait, IdleWaitMax, RetryWait,
	// RetryWaitMax and MaxAttempts mean what they mean on Client.
	BaseURL                 string
	HTTP                    *http.Client
	ID                      string
	Seed                    int64
	IdleWait, IdleWaitMax   time.Duration
	RetryWait, RetryWaitMax time.Duration
	MaxAttempts             int
	// Batch caps the adaptive ask.
	Batch int

	// Stats accumulates the run's activity (IdlePolls counts the idle
	// steps of Run).
	Stats Stats
	// JobsFinished counts acks reporting that their job reached a
	// terminal state (job service only).
	JobsFinished int
	// Dropped counts computed tasks abandoned unacked because the server
	// became unreachable (lease expiry re-grants them).
	Dropped int

	rng *rand.Rand
}

// NewEngine returns an engine configured by cfg, with every unset knob
// at its default: idle backoff 2ms growing to 250ms, retry backoff 5ms
// growing to 500ms, 8 attempts per request, http.DefaultClient, and
// batch as the cap when cfg.Batch ≤ 0.
func NewEngine(cfg Engine, batch int) *Engine {
	cfg.defaults(batch)
	return &cfg
}

func (e *Engine) defaults(batch int) {
	orDefault := func(v, d time.Duration) time.Duration {
		if v <= 0 {
			return d
		}
		return v
	}
	e.IdleWait = orDefault(e.IdleWait, 2*time.Millisecond)
	e.IdleWaitMax = max(orDefault(e.IdleWaitMax, 250*time.Millisecond), e.IdleWait)
	e.RetryWait = orDefault(e.RetryWait, 5*time.Millisecond)
	e.RetryWaitMax = max(orDefault(e.RetryWaitMax, 500*time.Millisecond), e.RetryWait)
	if e.MaxAttempts <= 0 {
		e.MaxAttempts = 8
	}
	if e.Batch <= 0 {
		e.Batch = batch
	}
	if e.HTTP == nil {
		e.HTTP = http.DefaultClient
	}
}

// Route is one task server as the engine sees it, with the adaptive ask
// and fencing epoch the engine keeps for it.
type Route struct {
	// Prefix is the path that /tasks, /report and /status hang off: ""
	// for a single server or the job service, "/shard/<i>" for one shard
	// of a coordinator.
	Prefix string
	// Compute runs one granted task; job is the grant's job ID ("" off
	// the job service).  A plain error hands the task back in the
	// report's failed set; ErrCrash abandons the batch.  Nil acks every
	// task done.
	Compute func(job string, task dag.NodeID, name string) error
	// Report builds the /report body for one batch; nil sends the single
	// server's form.
	Report func(job string, done, failed []dag.NodeID, k int, epoch uint64) any

	ask   int
	epoch uint64
}

// Run repeats step until it reports done or fails, resetting the idle
// backoff whenever a step moved work and otherwise sleeping a jittered,
// exponentially growing wait, so large idle fleets neither busy-poll nor
// hammer the server in lockstep.
func (e *Engine) Run(ctx context.Context, step func() (moved, done bool, err error)) error {
	idle := e.IdleWait
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		moved, done, err := step()
		if err != nil || done {
			return err
		}
		if moved {
			idle = e.IdleWait
			continue
		}
		e.Stats.IdlePolls++
		if err := sleep(ctx, e.jitter(idle)); err != nil {
			return err
		}
		idle = min(2*idle, e.IdleWaitMax)
	}
}

// Drain is one batched step on route r: poll /tasks once, then compute
// each grant and ack it in one /report that piggybacks the next ask, so
// the steady state is one round trip (and one server lock acquisition)
// per batch.  It returns when a grant comes back empty or r answers
// finished, reporting whether any batch moved.  The ask starts at 1,
// doubles after a full grant up to Batch, holds on a short grant and
// resets to 1 after an empty poll.  ErrCrash from Compute abandons the
// unreported rest of the batch, so lease expiry must recover it.
func (e *Engine) Drain(ctx context.Context, r *Route) (moved, finished bool, err error) {
	r.ask = max(r.ask, 1)
	code, body, err := e.postRetry(ctx, r.Prefix+"/tasks", tasksRequest{K: r.ask})
	if err != nil {
		return false, false, err
	}
	if code == http.StatusGone {
		return false, true, nil
	}
	var g tasksResponse
	if err := decode(r.Prefix+"/tasks", code, body, &g); err != nil {
		return false, false, err
	}
	for {
		if g.Epoch != 0 {
			r.epoch = g.Epoch
		}
		if len(g.Tasks) == 0 {
			if !moved {
				r.ask = 1 // nothing eligible: the next poll probes with the minimum ask
			}
			return moved, false, nil
		}
		moved = true
		e.Stats.Batches++
		var done, failed []dag.NodeID
		for _, t := range g.Tasks {
			if err := r.compute(g.Job, t); errors.Is(err, ErrCrash) {
				return true, false, err // vanish mid-batch: lease expiry recovers the rest
			} else if err != nil {
				failed = append(failed, t.Task)
			} else {
				done = append(done, t.Task)
			}
		}
		// A short grant keeps the ask: over-asking costs nothing (the
		// server clamps the grant to the ELIGIBLE prefix under the same
		// lock acquisition), while shrinking to the granted count would
		// pin the whole fleet to one-task asks on any dag whose frontier
		// is narrower than clients × Batch.
		if len(g.Tasks) == r.ask {
			r.ask = min(2*r.ask, e.Batch)
		}
		var a reportResponse
		err := e.ack(ctx, r, "/report", g.Job, &a, func(epoch uint64) any {
			if r.Report != nil {
				return r.Report(g.Job, done, failed, r.ask, epoch)
			}
			return reportRequest{Done: done, Failed: failed, K: r.ask, Epoch: epoch}
		})
		if err != nil {
			if errors.Is(err, ErrUnreachable) {
				e.Dropped += len(done) + len(failed)
			}
			return true, false, err
		}
		e.Stats.Completed += len(done)
		e.Stats.Failed += len(failed)
		if a.JobFinished {
			e.JobsFinished++
		}
		if a.Finished {
			return true, true, nil // terminal: all tasks done (or degraded)
		}
		g = tasksResponse{Tasks: a.Tasks, Epoch: a.Epoch}
		if a.Grant != nil {
			g = *a.Grant // the job service piggybacks its grant whole
		}
	}
}

func (r *Route) compute(job string, t taskResponse) error {
	if r.Compute == nil {
		return nil
	}
	return r.Compute(job, t.Task, t.Name)
}

// ack POSTs a report built for r's current epoch, decoding the reply
// into v, and repeats it across stale-epoch 409s: the server restarted
// since the grant, so the engine resyncs r's epoch and re-sends the same
// report, which the recovered server applies (the tasks came back
// requeued) or absorbs as idempotent duplicates (they were journaled
// before the crash).
func (e *Engine) ack(ctx context.Context, r *Route, path, job string, v any, report func(epoch uint64) any) error {
	path = r.Prefix + path
	for try := 1; ; try++ {
		code, body, err := e.postRetry(ctx, path, report(r.epoch))
		if err != nil {
			return err
		}
		var rej staleEpochResponse
		if code == http.StatusConflict && json.Unmarshal(body, &rej) == nil && rej.Error == StaleEpoch {
			if try >= e.MaxAttempts {
				return fmt.Errorf("icserver client: %s kept hitting stale epochs after %d resyncs", path, try)
			}
			if r.epoch, err = e.resync(ctx, r, job, rej.Epoch); err != nil {
				return err
			}
			continue
		}
		return decode(path, code, body, v)
	}
}

// resync re-reads r's fencing epoch after a stale-epoch rejection: per
// protocol from GET /status (for a job, its entry in the job list),
// falling back to the epoch the rejection carried when /status is
// unreachable (the server may be mid-restart again).
func (e *Engine) resync(ctx context.Context, r *Route, job string, rejected uint64) (uint64, error) {
	e.Stats.Resyncs++
	var st struct {
		Epoch uint64 `json:"epoch"`
		Jobs  []struct {
			Job   string `json:"job"`
			Epoch uint64 `json:"epoch"`
		} `json:"jobs"`
	}
	if _, err := getJSON(ctx, e.HTTP, e.BaseURL+r.Prefix+"/status", &st); err == nil {
		for _, j := range st.Jobs {
			if job != "" && j.Job == job {
				st.Epoch = j.Epoch
			}
		}
		if st.Epoch != 0 {
			return st.Epoch, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if rejected != 0 {
		return rejected, nil
	}
	return 0, fmt.Errorf("icserver client: stale-epoch rejection without a recoverable epoch")
}

// decode checks for a 200 and unmarshals body into v (when non-nil).
func decode(path string, code int, body []byte, v any) error {
	if code != http.StatusOK {
		return fmt.Errorf("icserver client: %s returned %d: %s", path, code, body)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("icserver client: %w", err)
	}
	return nil
}

// jitter picks a uniform duration in [d/2, d) — "equal jitter", which
// decorrelates a fleet of clients that went idle at the same moment.
// The rng is seeded on first use from Seed, or else from the next
// process-wide default.
func (e *Engine) jitter(d time.Duration) time.Duration {
	if e.rng == nil {
		seed := e.Seed
		if seed == 0 {
			seed = seedSeq.Add(1)
		}
		e.rng = rand.New(rand.NewSource(seed))
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(e.rng.Int63n(int64(half)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// postRetry POSTs v as JSON (no body when v is nil) to path, retrying
// transport errors and 5xx — a draining, killed or mid-recovery server —
// with capped exponential backoff and jitter.  It returns the first
// conclusive status; a budget that runs out returns ErrUnreachable.
func (e *Engine) postRetry(ctx context.Context, path string, v any) (int, []byte, error) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			return 0, nil, err
		}
	}
	wait := e.RetryWait
	var lastErr error
	for try := 0; try < e.MaxAttempts; try++ {
		if try > 0 {
			e.Stats.Retries++
			if err := sleep(ctx, e.jitter(wait)); err != nil {
				return 0, nil, err
			}
			wait = min(2*wait, e.RetryWaitMax)
		}
		code, resp, err := e.post(ctx, e.BaseURL+path, body)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			lastErr = err // transport failure (includes dropped responses)
		case code >= 500:
			lastErr = fmt.Errorf("%s returned %d: %s", path, code, resp)
		default:
			return code, resp, nil
		}
	}
	return 0, nil, fmt.Errorf("%w: %s failed after %d attempts: %w", ErrUnreachable, path, e.MaxAttempts, lastErr)
}

func (e *Engine) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if e.ID != "" {
		req.Header.Set(clientHeader, e.ID)
	}
	resp, err := e.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// getJSON GETs url and decodes the body into v, returning the status.
func getJSON(ctx context.Context, httpc *http.Client, url string, v any) (int, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}
