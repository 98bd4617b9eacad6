// Package icserver is a working Internet-computing task server in the
// paper's setting (§1–§2): a server owns a computation-dag and hands
// ELIGIBLE tasks to remote clients over HTTP, allocating in the order a
// pluggable scheduling policy dictates (IC-optimal via heur.Static, or
// any heuristic).
//
// The quality model's idealization — tasks are executed in allocation
// order — cannot be enforced over a real network, so the server adds the
// mechanisms real IC systems use against slow, vanished, or failing
// clients (cf. the monitoring prescriptions the paper cites):
//
//   - an allocation lease: a task not reported complete within the lease
//     is re-offered to other clients (expiry tracked in a min-heap, so
//     allocation stays O(log n) under many outstanding leases);
//   - early hand-back: a client whose computation fails POSTs /failed and
//     the task is requeued ahead of the policy;
//   - quarantine: a task that has been handed out MaxAttempts times
//     without completing is quarantined rather than reissued forever, and
//     the computation degrades gracefully to "finished with a quarantined
//     set" instead of hanging;
//   - idempotent completion: late or duplicate /done reports (including
//     from clients whose lease expired, or for quarantined tasks, which
//     are then rescued) cause no harm.
//
// Wire protocol (JSON):
//
//	POST /task            -> 200 {"task": id, "name": label}  |  204 (none eligible)
//	                         |  410 (finished)  |  503 (draining)
//	POST /done   {"task"} -> 200 {"newlyEligible": k}
//	POST /failed {"task"} -> 200 {"requeued": b, "quarantined": b}
//	POST /tasks  {"k": n} -> 200 {"tasks": [{"task": id, "name": label}, ...]}
//	                         (empty array when nothing is eligible right now)
//	                         |  400 (k < 1)  |  410 (finished)  |  503 (draining)
//	POST /report {"done": [ids], "failed": [ids], "k": n?}
//	                      -> 200 {"newlyEligible", "completed", "duplicates",
//	                              "requeued", "quarantined",
//	                              "tasks": [...]?, "finished": b?}
//	                         |  400 (malformed, k < 0, or a task listed twice)
//	                         |  409 (out-of-range or never-allocated task)
//	GET  /status          -> 200 {"total", "completed", "eligible", "allocated",
//	                              "stalls", "reissues", "failed", "quarantined"}
//	GET  /healthz         -> 200/503 {"status", "uptimeSeconds", "completed", "total"}
//	GET  /metrics         -> 200 Prometheus text format (see Metrics)
//
// /tasks and /report are the batched protocol: one request amortizes the
// scheduler lock and the HTTP round-trip over up to k tasks.  A /tasks
// grant is the length-≤k prefix of the server's allocation order — expired
// leases first, then /failed hand-backs, then the policy's picks — taken
// under ONE lock acquisition with one clock read and one gauge sync, so an
// IC-optimal policy hands out exactly the ELIGIBLE-maximizing prefix the
// quality model prescribes.  A /report acks a mixed batch of completions
// and hand-backs atomically: the batch is validated in full (any
// out-of-range, never-allocated, or twice-listed task rejects it) before
// anything is applied, so a retried report is always safe.  A /report
// carrying a positive "k" additionally piggybacks the next grant onto the
// ack — report and grant happen under the same single lock acquisition,
// so the steady-state batched client pays one round trip per batch
// ("finished": true is the piggybacked analog of the /tasks 410; while
// draining the ack is accepted but the grant is suppressed).  The legacy
// single-task endpoints remain wire-compatible; both client generations
// can share one server.
//
// Every 503 carries one typed JSON body {"error": "unavailable",
// "reason": "draining" | "killed" | "journal-failed", "detail": ...}:
// the drain check and the killed/wounded check happen under one lock
// acquisition, so a request cannot observe "not draining" and then be
// granted by a drained (or dead) incarnation.  Draining refuses only
// new grants (/task, /tasks, and the piggybacked grant of /report);
// completions stay welcome so in-flight leases can land.
//
// POST requests may carry an X-IC-Client header naming the client; the
// name is attached to trace events so per-client activity is visible in
// chrome://tracing.
//
// Request bodies are bounded (64 KiB); oversized, empty, or malformed
// bodies get 400.
package icserver

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/obs"
	"icsched/internal/relaxed"
	"icsched/internal/sched"
	"icsched/internal/wal"
)

// clientHeader is the optional request header naming the client for
// trace attribution.
const clientHeader = "X-IC-Client"

// maxBodyBytes bounds /done and /failed request bodies.
const maxBodyBytes = 64 << 10

// Server allocates the tasks of one dag execution.  Create with New and
// mount via Handler (or use httptest / http.Server directly).
type Server struct {
	mu          sync.Mutex
	g           *dag.Dag
	st          *sched.State
	inst        heur.Instance
	lease       time.Duration
	maxAttempts int
	now         func() time.Time // injectable clock for tests
	start       time.Time
	leases      map[dag.NodeID]time.Time // task -> lease grant time
	expiry      leaseHeap                // grant-time-ordered, lazily invalidated
	attempts    map[dag.NodeID]int       // task -> times handed out
	returned    []dag.NodeID             // tasks handed back via /failed, FIFO
	quarantined map[dag.NodeID]bool
	done        map[dag.NodeID]bool
	stalls      int
	reissues    int
	failed      int // /failed reports accepted
	draining    bool
	degraded    bool // terminal with a non-empty quarantined set

	// Durability state (nil wal = memory-only server).  The epoch is the
	// fencing token of this incarnation: fixed at construction, bumped
	// once per Recover, stamped on every grant and checked on every
	// nonzero-epoch report.
	epoch        uint64
	wal          *wal.Log
	walErr       error // first journal append failure; wounds the server
	staleReports int   // reports rejected for carrying a stale epoch
	killed       bool  // Kill happened: refuse all mutating requests
	shutdownDone chan struct{}
	shutdownErr  error

	// Relaxed grant path (nil relax = exact locked scheduler).  See
	// relaxed.go: pops happen outside s.mu, everything durable stays
	// under it.  relaxPending counts tasks claimed from the core but not
	// yet granted or pushed back, so the terminal check cannot mistake an
	// in-window pop for a lost task.
	relax        *relaxed.Core
	relaxShards  int
	relaxPending atomic.Int64
	relaxPopHook func(dag.NodeID) // test hook: between claim and journal

	// Schedule-cache replay path (nil cursorInst = per-task grant
	// journaling).  When the policy grants strictly along a cached
	// static order (schedcache.Replay), first-time grants are journaled
	// as cursor advances — one KindCursor record per allocation batch
	// instead of one KindGrant per task — and recovery re-derives the
	// granted prefix from (order, cursor).  Re-grants after expiry or
	// hand-back keep explicit records.
	cursorInst  cursorInstance
	cursorDirty bool  // first-time grants since the last cursor record
	lastCursor  int64 // cursor as of the last journaled cursor record

	// External-dependency gate (nil extNeed = unsharded server).  See
	// extdeps.go: a task with outstanding cross-shard credits is held
	// back in extHeld when the scheduler offers it, and released by
	// Credit; extCredited makes credit delivery idempotent per
	// (task, source) pair.
	extNeed     map[dag.NodeID]int
	extHeld     map[dag.NodeID]bool
	extCredited map[dag.NodeID]map[int64]bool

	// completionHook, when set, observes every first-time completion
	// (after it is journaled) — the composition point the sharded
	// coordinator (internal/shard) uses to turn completions into
	// cross-shard eligibility credits.  Called under s.mu: it must not
	// call back into this server.
	completionHook func(dag.NodeID)

	reg        *obs.Registry // always non-nil; serves GET /metrics
	trace      *obs.Trace    // optional task-trace recorder
	traceEnded bool          // run-end recorded
	m          serverMetrics
}

// serverMetrics caches the registry handles the hot paths bump.  Every
// series is reconciled with Status(): the *_total counters mirror the
// monotone Status fields and the gauges mirror the instantaneous ones,
// so a /metrics scrape and a /status read taken at quiescence agree.
type serverMetrics struct {
	reqTask, reqDone, reqFailed *obs.Counter
	reqTasks, reqReport         *obs.Counter // batched-protocol requests
	allocations                 *obs.Counter // lease grants, initial + reissues
	completions                 *obs.Counter // first-time completions
	duplicateDone               *obs.Counter // idempotent duplicate /done no-ops
	stalls                      *obs.Counter
	reissues                    *obs.Counter
	failed                      *obs.Counter // /failed hand-backs accepted
	leaseExpiries               *obs.Counter // leases reclaimed after expiry
	quarantines                 *obs.Counter // tasks ever quarantined
	rescues                     *obs.Counter // quarantined tasks rescued by a late /done
	staleReports                *obs.Counter // reports rejected on a stale epoch
	eligible                    *obs.Gauge   // live |ELIGIBLE| (§2.2)
	leases                      *obs.Gauge   // outstanding allocations
	quarantined                 *obs.Gauge   // current quarantined set size
	completed                   *obs.Gauge   // tasks executed
	epoch                       *obs.Gauge   // fencing token of this incarnation
	recoverySeconds             *obs.Gauge   // wall time of the last Recover
	walBytes                    *obs.Counter // journal bytes appended
	walFsync                    *obs.Histogram

	latTask, latDone, latFailed *obs.Histogram // per-endpoint handler latency
	latTasks, latReport         *obs.Histogram
	grantsPerRequest            *obs.Histogram // tasks granted per /tasks request
	lockHold                    *obs.Histogram // scheduler-lock hold time per allocation request
}

// latencyBuckets spans local-loop HTTP handler times, 50µs to ~1s.
var latencyBuckets = []float64{
	.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1,
}

// grantBuckets spans batch sizes granted per /tasks request.
var grantBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	req := func(path string) *obs.Counter {
		return reg.Counter(fmt.Sprintf("icserver_http_requests_total{path=%q}", path),
			"HTTP requests by path")
	}
	lat := func(path string) *obs.Histogram {
		return reg.Histogram(fmt.Sprintf("icserver_request_seconds{path=%q}", path),
			"HTTP handler latency by path", latencyBuckets)
	}
	return serverMetrics{
		reqTask:   req("/task"),
		reqDone:   req("/done"),
		reqFailed: req("/failed"),
		reqTasks:  req("/tasks"),
		reqReport: req("/report"),
		latTask:   lat("/task"),
		latDone:   lat("/done"),
		latFailed: lat("/failed"),
		latTasks:  lat("/tasks"),
		latReport: lat("/report"),
		grantsPerRequest: reg.Histogram("icserver_grants_per_request",
			"tasks granted per batched /tasks request", grantBuckets),
		lockHold: reg.Histogram("icserver_lock_hold_seconds",
			"scheduler-lock hold time per allocation request", latencyBuckets),
		allocations:   reg.Counter("icserver_allocations_total", "lease grants (initial allocations + reissues)"),
		completions:   reg.Counter("icserver_completions_total", "first-time task completions"),
		duplicateDone: reg.Counter("icserver_duplicate_done_total", "idempotent duplicate /done reports"),
		stalls:        reg.Counter("icserver_stalls_total", "allocation requests that found nothing ELIGIBLE"),
		reissues:      reg.Counter("icserver_reissues_total", "re-allocations after lease expiry or /failed"),
		failed:        reg.Counter("icserver_failed_total", "/failed hand-backs accepted"),
		leaseExpiries: reg.Counter("icserver_lease_expiries_total", "leases reclaimed after expiry"),
		quarantines:   reg.Counter("icserver_quarantines_total", "tasks quarantined (MaxAttempts exhausted)"),
		rescues:       reg.Counter("icserver_quarantine_rescues_total", "quarantined tasks rescued by a late completion"),
		staleReports:  reg.Counter("icserver_stale_epoch_rejections_total", "reports rejected for carrying a stale epoch"),
		eligible:      reg.Gauge("icserver_eligible", "live |ELIGIBLE| count (the §2.2 quality measure)"),
		leases:        reg.Gauge("icserver_leases", "outstanding allocation leases"),
		quarantined:   reg.Gauge("icserver_quarantined", "current quarantined set size"),
		completed:     reg.Gauge("icserver_completed", "tasks completed"),
		epoch:         reg.Gauge("icserver_epoch", "fencing token of the serving incarnation"),
		recoverySeconds: reg.Gauge("icserver_recovery_seconds",
			"wall time of the last snapshot-load + journal-replay recovery"),
		walBytes: reg.Counter("icserver_wal_bytes_total", "journal bytes appended"),
		walFsync: reg.Histogram("icserver_wal_fsync_seconds",
			"journal fsync latency (group commit)", latencyBuckets),
	}
}

// cursorInstance is the contract a policy instance must satisfy for
// cursor-journaled replay (schedcache.Replay implements it): grants are
// issued strictly in static-order positions, so the first-time-granted
// set is always exactly order[0:Cursor()].
type cursorInstance interface {
	heur.Instance
	// Cursor reports how many first-time grants have been issued.
	Cursor() int
	// SeekCursor restores the cursor after recovery: the first c order
	// positions were granted by a previous incarnation.
	SeekCursor(c int)
}

// Option configures a Server.
type Option func(*Server)

// WithLease sets the allocation lease (default 30s; 0 disables
// reissuing).
func WithLease(d time.Duration) Option {
	return func(s *Server) { s.lease = d }
}

// WithMaxAttempts sets how many times a task may be handed out (initial
// allocation + reissues after expiry or /failed) before it is quarantined
// (default 5; 0 disables quarantine).
func WithMaxAttempts(n int) Option {
	return func(s *Server) { s.maxAttempts = n }
}

// WithClock injects a time source (tests).
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithTrace attaches a task-trace recorder: every allocation, completion,
// hand-back, and quarantine is recorded as an obs.Event (the schema shared
// with exec and icsim), with the client's X-IC-Client name as the actor.
func WithTrace(tr *obs.Trace) Option {
	return func(s *Server) { s.trace = tr }
}

// WithCompletionHook observes every first-time completion, after the
// completion is journaled and the newly-eligible packet offered.  The
// hook runs under the scheduler lock and MUST NOT call back into the
// server; keep it to an enqueue (the sharded coordinator forwards the
// completion to other shards from its own goroutine).
func WithCompletionHook(h func(dag.NodeID)) Option {
	return func(s *Server) { s.completionHook = h }
}

// newCore builds the server skeleton shared by New and Recover: struct,
// options, metrics, clock — but no policy offer, no trace events, and
// no journal.
func newCore(g *dag.Dag, policy heur.Policy, opts ...Option) *Server {
	s := &Server{
		g:           g,
		st:          sched.NewState(g),
		inst:        policy.Start(g),
		lease:       30 * time.Second,
		maxAttempts: 5,
		now:         time.Now,
		epoch:       1,
		leases:      make(map[dag.NodeID]time.Time),
		attempts:    make(map[dag.NodeID]int),
		quarantined: make(map[dag.NodeID]bool),
		done:        make(map[dag.NodeID]bool),
		reg:         obs.NewRegistry(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.relaxShards > 0 {
		s.relax = newRelaxedCore(g, policy, s.relaxShards)
	} else if ci, ok := s.inst.(cursorInstance); ok {
		// The relaxed core pops out of order, so cursor journaling only
		// arms on the exact locked path.
		s.cursorInst = ci
	}
	s.m = newServerMetrics(s.reg)
	s.start = s.now()
	return s
}

// New builds a memory-only server for one fresh execution of g under the
// policy.  For a crash-safe server backed by a journal directory — fresh
// or recovered — use Recover.
func New(g *dag.Dag, policy heur.Policy, opts ...Option) *Server {
	s := newCore(g, policy, opts...)
	s.offerLocked(s.st.Eligible())
	s.syncGaugesLocked()
	if s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseRunStart, Task: -1, Actor: "server",
			Eligible: s.st.NumEligible()})
	}
	return s
}

// Metrics returns the server's registry (for embedding its series in a
// larger process registry or scraping without HTTP).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the HTTP handler exposing the protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /task", timed(s.m.latTask, s.handleTask))
	mux.HandleFunc("POST /done", timed(s.m.latDone, s.handleDone))
	mux.HandleFunc("POST /failed", timed(s.m.latFailed, s.handleFailed))
	mux.HandleFunc("POST /tasks", timed(s.m.latTasks, s.handleTasks))
	mux.HandleFunc("POST /report", timed(s.m.latReport, s.handleReport))
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// timed records a handler's wall time in its endpoint latency histogram.
func timed(lat *obs.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
	}
}

// taskResponse is the /task payload; Epoch is the fencing token the
// report for this grant must carry.
type taskResponse struct {
	Task  dag.NodeID `json:"task"`
	Name  string     `json:"name"`
	Epoch uint64     `json:"epoch,omitempty"`
}

// doneRequest is the /done and /failed payload.  A zero Epoch is a
// legacy (pre-fencing) client and is accepted unchecked; a nonzero
// epoch must match the serving incarnation or the report is rejected
// with 409 stale-epoch.
type doneRequest struct {
	Task  dag.NodeID `json:"task"`
	Epoch uint64     `json:"epoch,omitempty"`
}

// doneResponse reports the packet size.
type doneResponse struct {
	NewlyEligible int `json:"newlyEligible"`
}

// failedResponse reports what became of a handed-back task.
type failedResponse struct {
	Requeued    bool `json:"requeued"`
	Quarantined bool `json:"quarantined"`
}

// tasksRequest is the batched /tasks payload: grant up to K tasks.
type tasksRequest struct {
	K int `json:"k"`
}

// tasksResponse carries a batch grant; Tasks is empty when nothing is
// eligible (the batched analog of the legacy 204).  Job is set only by
// the job service (internal/jobs), whose grants are one job's tasks.
type tasksResponse struct {
	Tasks []taskResponse `json:"tasks"`
	Epoch uint64         `json:"epoch,omitempty"`
	Job   string         `json:"job,omitempty"`
}

// reportRequest is the batched /report payload: a mixed batch of
// completions and early hand-backs, acked in one request.  A positive K
// piggybacks the next grant onto the ack — the server acks the batch and
// grants up to K next tasks under the same single lock acquisition, so a
// steady-state batched client needs one round trip per batch, not two.
type reportRequest struct {
	Done   []dag.NodeID `json:"done"`
	Failed []dag.NodeID `json:"failed"`
	K      int          `json:"k,omitempty"`
	Epoch  uint64       `json:"epoch,omitempty"`
}

// reportResponse is the /report reply: the batch summary plus, when the
// request piggybacked an ask (K > 0), the next grant.  Finished reports
// the terminal state (the batched analog of the legacy 410) — it can only
// turn true on a piggybacked report, never on a plain ack.  The job
// service's reply has the same shape with the next grant nested whole
// under Grant and the job's terminal state in JobFinished; this server
// leaves both unset.
type reportResponse struct {
	BatchReport
	Tasks       []taskResponse `json:"tasks,omitempty"`
	Finished    bool           `json:"finished,omitempty"`
	Epoch       uint64         `json:"epoch,omitempty"`
	JobFinished bool           `json:"jobFinished,omitempty"`
	Grant       *tasksResponse `json:"grant,omitempty"`
}

// BatchReport summarizes what a /report batch did; it is also the
// in-process Report return value.
type BatchReport struct {
	// NewlyEligible sums the packet sizes of the first-time completions.
	NewlyEligible int `json:"newlyEligible"`
	// Completed counts first-time completions in the batch.
	Completed int `json:"completed"`
	// Duplicates counts idempotent re-acks of already-completed tasks.
	Duplicates int `json:"duplicates"`
	// Requeued and Quarantined count what became of the failed entries.
	Requeued    int `json:"requeued"`
	Quarantined int `json:"quarantined"`
}

// healthResponse is the /healthz payload.
type healthResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Completed     int     `json:"completed"`
	Total         int     `json:"total"`
}

// Status is the /status payload.  Epoch is the serving incarnation's
// fencing token — a fenced client resyncs by reading it here.
type Status struct {
	Total        int    `json:"total"`
	Completed    int    `json:"completed"`
	Eligible     int    `json:"eligible"`
	Allocated    int    `json:"allocated"`
	Stalls       int    `json:"stalls"`
	Reissues     int    `json:"reissues"`
	Failed       int    `json:"failed"`
	Quarantined  int    `json:"quarantined"`
	Epoch        uint64 `json:"epoch"`
	StaleReports int    `json:"staleReports"`
}

// unavailableResponse is the one typed 503 body every refusal path
// emits: Reason distinguishes a draining server (come back to the same
// incarnation for completions, or not at all for grants) from a killed
// or journal-wounded one (retry against the successor).
type unavailableResponse struct {
	Error  string `json:"error"`  // always "unavailable"
	Reason string `json:"reason"` // "draining" | "killed" | "journal-failed"
	Detail string `json:"detail,omitempty"`
}

// unavailableError is the Error field of every 503 body.
const unavailableError = "unavailable"

// Refusal reasons.
const (
	ReasonDraining      = "draining"
	ReasonKilled        = "killed"
	ReasonJournalFailed = "journal-failed"
)

// writeUnavailable emits the typed 503 body.
func writeUnavailable(w http.ResponseWriter, reason, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(unavailableResponse{Error: unavailableError, Reason: reason, Detail: detail})
}

// refuse checks every unavailability condition under ONE lock
// acquisition — the same discipline the epoch fence gets from its
// immutable read — and writes the typed 503 when the request must be
// refused.  checkDrain marks allocation paths (/task, /tasks): a
// draining server refuses new grants but still takes completions.
// The returned draining flag lets /report suppress its piggybacked
// grant while accepting the ack.
func (s *Server) refuse(w http.ResponseWriter, checkDrain bool) (refused, draining bool) {
	s.mu.Lock()
	err := s.unavailableLocked()
	draining = s.draining
	s.mu.Unlock()
	if err != nil {
		reason := ReasonKilled
		if errors.Is(err, errJournalFailed) {
			reason = ReasonJournalFailed
		}
		writeUnavailable(w, reason, err.Error())
		return true, draining
	}
	if checkDrain && draining {
		writeUnavailable(w, ReasonDraining, "icserver: draining, no new grants")
		return true, draining
	}
	return false, draining
}

// errKilled and errJournalFailed mark mutating operations refused on a
// dead or wounded incarnation; handlers map them to 503 so clients
// retry against the successor instead of treating them as conflicts.
var (
	errKilled        = errors.New("icserver: server killed")
	errJournalFailed = errors.New("icserver: journal failed")
)

// unavailableLocked is the in-lock form of unavailable (caller holds
// s.mu).  Kill takes the same lock, so every mutating core that checks
// this first is atomic against it: an operation either completed fully
// before the kill (and was journaled) or is refused in full — no grant
// or ack can escape in memory only, invisible to recovery.
func (s *Server) unavailableLocked() error {
	switch {
	case s.killed:
		return errKilled
	case s.walErr != nil:
		return fmt.Errorf("%w: %v", errJournalFailed, s.walErr)
	}
	return nil
}

// IsDuplicateAck reports whether err is the duplicate-ack batch
// rejection (the same task acked twice in ONE report) — a malformed
// request (400), not a state conflict.  Exported so layers composing
// this server (internal/jobs) classify Report errors identically.
func IsDuplicateAck(err error) bool { return errors.Is(err, errDuplicateAck) }

// IsUnavailable reports whether err marks a dead or journal-wounded
// incarnation — a 503 for composing layers.
func IsUnavailable(err error) bool {
	return errors.Is(err, errKilled) || errors.Is(err, errJournalFailed)
}

// StaleEpoch is the "error" marker of the typed 409 body rejecting a
// report fenced against an older incarnation (here and in the job
// service); a client resyncs on it via GET /status.
const StaleEpoch = "stale epoch"

// staleEpochResponse is the 409 payload rejecting a stale-epoch report.
type staleEpochResponse struct {
	Error string `json:"error"`
	Epoch uint64 `json:"epoch"`
}

// fenceStale rejects a nonzero request epoch that does not match the
// serving incarnation.  The epoch is fixed per incarnation, so the
// unlocked read is safe; a zero epoch is a legacy client, accepted
// unchecked for wire compatibility.
func (s *Server) fenceStale(w http.ResponseWriter, reqEpoch uint64) bool {
	if reqEpoch == 0 || reqEpoch == s.epoch {
		return false
	}
	s.mu.Lock()
	s.staleReports++
	s.mu.Unlock()
	s.m.staleReports.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	_ = json.NewEncoder(w).Encode(staleEpochResponse{Error: StaleEpoch, Epoch: s.epoch})
	return true
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	s.m.reqTask.Inc()
	if refused, _ := s.refuse(w, true); refused {
		return
	}
	v, state := s.allocate(r.Header.Get(clientHeader))
	switch state {
	case AllocOK:
		writeJSON(w, taskResponse{Task: v, Name: s.g.Name(v), Epoch: s.epoch})
	case AllocEmpty:
		w.WriteHeader(http.StatusNoContent)
	case AllocFinished:
		w.WriteHeader(http.StatusGone)
	}
}

// decodeTask reads a bounded {"task": id} body, distinguishing empty and
// oversized bodies from malformed JSON only in the error text.
func decodeTask(w http.ResponseWriter, r *http.Request) (doneRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req doneRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	switch {
	case err == nil:
		return req, true
	case errors.Is(err, io.EOF):
		http.Error(w, "icserver: empty request body", http.StatusBadRequest)
	default:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("icserver: request body exceeds %d bytes", tooLarge.Limit),
				http.StatusBadRequest)
		} else {
			http.Error(w, "icserver: malformed request body: "+err.Error(), http.StatusBadRequest)
		}
	}
	return doneRequest{}, false
}

func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	s.m.reqDone.Inc()
	req, ok := decodeTask(w, r)
	if !ok {
		return
	}
	if refused, _ := s.refuse(w, false); refused {
		return
	}
	if s.fenceStale(w, req.Epoch) {
		return
	}
	k, err := s.complete(req.Task, r.Header.Get(clientHeader))
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, doneResponse{NewlyEligible: k})
}

func (s *Server) handleFailed(w http.ResponseWriter, r *http.Request) {
	s.m.reqFailed.Inc()
	req, ok := decodeTask(w, r)
	if !ok {
		return
	}
	if refused, _ := s.refuse(w, false); refused {
		return
	}
	if s.fenceStale(w, req.Epoch) {
		return
	}
	requeued, quarantined, err := s.fail(req.Task, r.Header.Get(clientHeader))
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, failedResponse{Requeued: requeued, Quarantined: quarantined})
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	s.m.reqTasks.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req tasksRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "icserver: malformed /tasks body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.K < 1 {
		http.Error(w, fmt.Sprintf("icserver: batch size %d < 1", req.K), http.StatusBadRequest)
		return
	}
	if refused, _ := s.refuse(w, true); refused {
		return
	}
	batch, state := s.allocateBatch(req.K, r.Header.Get(clientHeader))
	if state == AllocFinished {
		w.WriteHeader(http.StatusGone)
		return
	}
	resp := tasksResponse{Tasks: make([]taskResponse, len(batch)), Epoch: s.epoch}
	for i, v := range batch {
		resp.Tasks[i] = taskResponse{Task: v, Name: s.g.Name(v), Epoch: s.epoch}
	}
	writeJSON(w, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.m.reqReport.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req reportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "icserver: malformed /report body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.K < 0 {
		http.Error(w, fmt.Sprintf("icserver: piggyback batch size %d < 0", req.K), http.StatusBadRequest)
		return
	}
	refused, draining := s.refuse(w, false)
	if refused {
		return
	}
	if s.fenceStale(w, req.Epoch) {
		return
	}
	actor := r.Header.Get(clientHeader)
	k := req.K
	if draining {
		k = 0 // completions are welcome during drain; new grants are not
	}
	if k == 0 {
		rep, err := s.report(req.Done, req.Failed, actor)
		if err != nil {
			writeReportError(w, err)
			return
		}
		writeJSON(w, reportResponse{BatchReport: rep, Epoch: s.epoch})
		return
	}
	rep, batch, state, err := s.reportAllocate(req.Done, req.Failed, k, actor)
	if err != nil {
		writeReportError(w, err)
		return
	}
	resp := reportResponse{BatchReport: rep, Finished: state == AllocFinished, Epoch: s.epoch}
	for _, v := range batch {
		resp.Tasks = append(resp.Tasks, taskResponse{Task: v, Name: s.g.Name(v), Epoch: s.epoch})
	}
	writeJSON(w, resp)
}

// writeReportError maps a rejected report batch onto HTTP: a batch that
// acks the same task twice is malformed (400); everything else is a state
// conflict (409) — unless the server itself is down (typed 503).
func writeReportError(w http.ResponseWriter, err error) {
	if errors.Is(err, errDuplicateAck) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeCoreError(w, err)
}

// writeCoreError maps a mutating-core error onto HTTP: a dead or wounded
// incarnation gets the typed 503 body (retryable — the successor will
// answer), anything else a 409 state conflict.
func writeCoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errKilled):
		writeUnavailable(w, ReasonKilled, err.Error())
	case errors.Is(err, errJournalFailed):
		writeUnavailable(w, ReasonJournalFailed, err.Error())
	default:
		http.Error(w, err.Error(), http.StatusConflict)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthResponse{
		Status:        "ok",
		UptimeSeconds: s.now().Sub(s.start).Seconds(),
		Completed:     s.st.NumExecuted(),
		Total:         s.g.NumNodes(),
	}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		h.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// AllocState classifies the outcome of an allocation request.
type AllocState int

const (
	// AllocOK: a task was allocated.
	AllocOK AllocState = iota
	// AllocEmpty: nothing is currently ELIGIBLE and unallocated.
	AllocEmpty
	// AllocFinished: the computation is over — every task completed, or
	// every remaining task is quarantined (or blocked behind one).
	AllocFinished
)

// Allocate hands out the next task per the policy, reissuing expired
// leases and handed-back tasks first.  Exposed for in-process use (the
// simulator-free examples and tests drive it directly).
func (s *Server) Allocate() (dag.NodeID, AllocState) { return s.allocate("") }

func (s *Server) allocate(actor string) (dag.NodeID, AllocState) {
	if s.relax != nil {
		batch, state := s.relaxedAllocateBatch(1, actor)
		if state == AllocOK {
			return batch[0], AllocOK
		}
		return 0, state
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unavailableLocked() != nil {
		return 0, AllocEmpty // not a stall: the incarnation is dead or wounded
	}
	held := time.Now()
	v, state := s.allocateOneLocked(s.now(), actor)
	s.flushCursorLocked()
	if state == AllocEmpty {
		s.stalls++
		s.m.stalls.Inc()
	}
	s.syncGaugesLocked()
	s.maybeSnapshotLocked()
	s.m.lockHold.Observe(time.Since(held).Seconds())
	return v, state
}

// AllocateBatch grants up to k tasks in allocation order — expired-lease
// reissues first, then /failed hand-backs, then policy picks — under one
// lock acquisition, with one clock read and one gauge sync for the whole
// batch.  It returns AllocOK with 1..k tasks, AllocEmpty with none (the
// computation is live but nothing is currently allocatable), or
// AllocFinished (terminal).  This is the in-process form of POST /tasks.
func (s *Server) AllocateBatch(k int) ([]dag.NodeID, AllocState) { return s.allocateBatch(k, "") }

func (s *Server) allocateBatch(k int, actor string) ([]dag.NodeID, AllocState) {
	if s.relax != nil {
		return s.relaxedAllocateBatch(k, actor)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unavailableLocked() != nil {
		return nil, AllocEmpty // not a stall: the incarnation is dead or wounded
	}
	held := time.Now()
	batch, state := s.allocateBatchLocked(k, actor)
	s.maybeSnapshotLocked()
	s.m.lockHold.Observe(time.Since(held).Seconds())
	return batch, state
}

// allocateBatchLocked grants up to k tasks with one clock read for the
// whole batch, counts a stall only on a zero grant, then syncs gauges and
// observes grants-per-request once (caller holds s.mu).
func (s *Server) allocateBatchLocked(k int, actor string) ([]dag.NodeID, AllocState) {
	now := s.now()
	var batch []dag.NodeID
	state := AllocOK
	for len(batch) < k {
		v, st := s.allocateOneLocked(now, actor)
		if st != AllocOK {
			state = st
			break
		}
		batch = append(batch, v)
	}
	s.flushCursorLocked()
	if len(batch) > 0 {
		// A partial grant is not a stall and not terminal: the request got
		// work, just less than it asked for.
		state = AllocOK
	} else if state == AllocEmpty {
		s.stalls++
		s.m.stalls.Inc()
	}
	s.syncGaugesLocked()
	s.m.grantsPerRequest.Observe(float64(len(batch)))
	return batch, state
}

// allocateOneLocked picks the next task to grant (caller holds s.mu and
// passes one clock reading for the whole request).  It neither syncs
// gauges nor counts stalls — the per-request wrappers do both once.
func (s *Server) allocateOneLocked(now time.Time, actor string) (dag.NodeID, AllocState) {
	if s.st.Done() {
		s.recordRunEndLocked()
		return 0, AllocFinished
	}
	// Reissue expired leases in expiry order.  Heap entries are lazily
	// invalidated: an entry is live only while the lease map still holds
	// the grant time it was pushed with.
	if s.lease > 0 {
		for s.expiry.Len() > 0 {
			top := s.expiry[0]
			granted, held := s.leases[top.v]
			if !held || !granted.Equal(top.granted) {
				heap.Pop(&s.expiry) // stale: completed, failed, or re-leased
				continue
			}
			if now.Sub(granted) < s.lease {
				break // earliest lease not yet expired
			}
			heap.Pop(&s.expiry)
			s.m.leaseExpiries.Inc()
			s.walAppendLocked(wal.KindExpiry, top.v, 0)
			if s.maxAttempts > 0 && s.attempts[top.v] >= s.maxAttempts {
				delete(s.leases, top.v)
				s.quarantineLocked(top.v, "server")
				continue
			}
			s.reissues++
			s.m.reissues.Inc()
			s.grantLocked(top.v, now, actor)
			return top.v, AllocOK
		}
	}
	// Tasks handed back via /failed go out before new policy picks.
	for len(s.returned) > 0 {
		v := s.returned[0]
		s.returned = s.returned[1:]
		if s.done[v] || s.quarantined[v] {
			continue
		}
		if _, held := s.leases[v]; held {
			continue // duplicate hand-back; already re-leased
		}
		s.reissues++
		s.m.reissues.Inc()
		s.grantLocked(v, now, actor)
		return v, AllocOK
	}
	v, ok := s.inst.Next()
	if !ok {
		if len(s.leases) == 0 && len(s.quarantined) > 0 && len(s.extHeld) == 0 {
			// Nothing in flight and nothing allocatable: every remaining
			// task is quarantined or blocked behind one.  Terminal.
			// (A task held behind a cross-shard credit is progress another
			// shard will unlock, so it suppresses the degraded verdict.)
			s.degraded = true
			s.recordRunEndLocked()
			return 0, AllocFinished
		}
		return 0, AllocEmpty
	}
	s.grantLocked(v, now, actor)
	return v, AllocOK
}

// grantLocked records a lease grant (caller holds s.mu).  One heap push,
// no gauge sync: the per-request wrappers reconcile gauges once per
// request, not once per grant.
func (s *Server) grantLocked(v dag.NodeID, now time.Time, actor string) {
	s.attempts[v]++
	s.leases[v] = now
	if s.lease > 0 {
		heap.Push(&s.expiry, leaseEntry{v: v, granted: now})
	}
	if s.cursorInst != nil && s.attempts[v] == 1 {
		// First-time grants under replay came from the cursor policy in
		// strict order; the whole batch is journaled as one cursor
		// advance by flushCursorLocked before the lock is released.
		s.cursorDirty = true
	} else {
		s.walAppendLocked(wal.KindGrant, v, uint32(s.attempts[v]))
	}
	s.m.allocations.Inc()
	if s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseAllocate, Task: int(v), Name: s.g.Name(v),
			Actor: actor, Attempt: s.attempts[v], Eligible: s.st.NumEligible()})
	}
}

// flushCursorLocked journals the pending cursor advance as a single
// KindCursor record (caller holds s.mu).  Every allocation path flushes
// before releasing the lock, so a cursor grant is always durable before
// its task can be reported done and before any snapshot covers it.
func (s *Server) flushCursorLocked() {
	if !s.cursorDirty {
		return
	}
	s.cursorDirty = false
	cur := s.cursorInst.Cursor()
	delta := cur - int(s.lastCursor)
	s.lastCursor = int64(cur)
	s.walAppendLocked(wal.KindCursor, dag.NodeID(cur), uint32(delta))
}

// quarantineLocked moves v into the quarantined set (caller holds s.mu
// and has already removed any lease).
func (s *Server) quarantineLocked(v dag.NodeID, actor string) {
	s.quarantined[v] = true
	s.walAppendLocked(wal.KindQuarantine, v, 0)
	s.m.quarantines.Inc()
	if s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseQuarantine, Task: int(v), Name: s.g.Name(v),
			Actor: actor, Attempt: s.attempts[v], Eligible: s.st.NumEligible()})
	}
}

// Complete records a finished task, returning how many tasks became
// newly ELIGIBLE.  Duplicate completions (late lease-holders) are
// idempotent no-ops; a late completion of a quarantined task rescues it
// from the quarantined set.
func (s *Server) Complete(v dag.NodeID) (int, error) { return s.complete(v, "") }

func (s *Server) complete(v dag.NodeID, actor string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unavailableLocked(); err != nil {
		return 0, err
	}
	defer s.maybeSnapshotLocked()
	defer s.syncGaugesLocked()
	return s.completeLocked(v, actor)
}

func (s *Server) completeLocked(v dag.NodeID, actor string) (int, error) {
	if int(v) < 0 || int(v) >= s.g.NumNodes() {
		return 0, fmt.Errorf("icserver: task %d out of range", v)
	}
	if s.done[v] {
		s.m.duplicateDone.Inc()
		return 0, nil // idempotent
	}
	if s.attempts[v] == 0 {
		return 0, fmt.Errorf("icserver: task %s was never allocated", s.g.Name(v))
	}
	packet, err := s.st.Execute(v)
	if err != nil {
		return 0, fmt.Errorf("icserver: %w", err)
	}
	s.done[v] = true
	delete(s.leases, v)
	if s.quarantined[v] {
		delete(s.quarantined, v) // a late result rescues a quarantined task
		s.m.rescues.Inc()
	}
	s.walAppendLocked(wal.KindDone, v, 0)
	s.offerLocked(packet)
	s.m.completions.Inc()
	if s.completionHook != nil {
		s.completionHook(v)
	}
	if s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseDone, Task: int(v), Name: s.g.Name(v),
			Actor: actor, Attempt: s.attempts[v], Eligible: s.st.NumEligible()})
	}
	if s.st.Done() {
		s.recordRunEndLocked()
	}
	return len(packet), nil
}

// Fail hands a task back early (the client's computation failed).  The
// task is requeued ahead of the policy, or quarantined once it has been
// handed out MaxAttempts times.  Failing a completed task is an
// idempotent no-op.
func (s *Server) Fail(v dag.NodeID) (requeued, quarantined bool, err error) {
	return s.fail(v, "")
}

func (s *Server) fail(v dag.NodeID, actor string) (requeued, quarantined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unavailableLocked(); err != nil {
		return false, false, err
	}
	defer s.maybeSnapshotLocked()
	defer s.syncGaugesLocked()
	return s.failLocked(v, actor)
}

func (s *Server) failLocked(v dag.NodeID, actor string) (requeued, quarantined bool, err error) {
	if int(v) < 0 || int(v) >= s.g.NumNodes() {
		return false, false, fmt.Errorf("icserver: task %d out of range", v)
	}
	if s.done[v] {
		return false, false, nil // completed elsewhere; nothing to do
	}
	if s.attempts[v] == 0 {
		return false, false, fmt.Errorf("icserver: task %s was never allocated", s.g.Name(v))
	}
	s.failed++
	s.m.failed.Inc()
	delete(s.leases, v)
	s.walAppendLocked(wal.KindFailed, v, 0)
	if s.quarantined[v] {
		return false, true, nil
	}
	if s.maxAttempts > 0 && s.attempts[v] >= s.maxAttempts {
		s.quarantineLocked(v, actor)
		return false, true, nil
	}
	if s.relax != nil {
		s.relax.Push(v)
	} else {
		s.returned = append(s.returned, v)
	}
	if s.trace != nil {
		s.trace.Record(obs.Event{Phase: obs.PhaseRetry, Task: int(v), Name: s.g.Name(v),
			Actor: actor, Attempt: s.attempts[v], Eligible: s.st.NumEligible()})
	}
	return true, false, nil
}

// errDuplicateAck rejects a /report batch that lists the same task twice;
// the handler maps it to 400 (a malformed batch, not a state conflict).
var errDuplicateAck = errors.New("icserver: task acked twice in one report batch")

// Report acks a mixed batch of completions and hand-backs under one lock
// acquisition — the in-process form of POST /report.  The batch is
// atomic: every listed task is validated first (in range, allocated at
// least once or already done, listed at most once across both lists), and
// on any violation nothing is applied.  Re-acking an already-completed
// task — the retried-report case — is an idempotent duplicate, not an
// error.
func (s *Server) Report(done, failed []dag.NodeID) (BatchReport, error) {
	return s.report(done, failed, "")
}

func (s *Server) report(done, failed []dag.NodeID, actor string) (BatchReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unavailableLocked(); err != nil {
		return BatchReport{}, err
	}
	defer s.maybeSnapshotLocked()
	defer s.syncGaugesLocked()
	return s.reportLocked(done, failed, actor)
}

// ReportAllocate acks a report batch and, under the same single lock
// acquisition, grants up to k next tasks — the in-process form of POST
// /report with "k" set.  One lock hold covers validation, completions,
// hand-backs, and the next grant, so a steady-state batched client pays
// one round trip and one lock acquisition per batch.  A rejected report
// (atomic, nothing applied) grants nothing.
func (s *Server) ReportAllocate(done, failed []dag.NodeID, k int) (BatchReport, []dag.NodeID, AllocState, error) {
	return s.reportAllocate(done, failed, k, "")
}

func (s *Server) reportAllocate(done, failed []dag.NodeID, k int, actor string) (BatchReport, []dag.NodeID, AllocState, error) {
	if s.relax != nil {
		rep, err := s.report(done, failed, actor)
		if err != nil {
			return rep, nil, AllocEmpty, err
		}
		batch, state := s.relaxedAllocateBatch(k, actor)
		return rep, batch, state, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unavailableLocked(); err != nil {
		return BatchReport{}, nil, AllocEmpty, err
	}
	held := time.Now()
	rep, err := s.reportLocked(done, failed, actor)
	if err != nil {
		s.syncGaugesLocked()
		return rep, nil, AllocEmpty, err
	}
	batch, state := s.allocateBatchLocked(k, actor)
	s.maybeSnapshotLocked()
	s.m.lockHold.Observe(time.Since(held).Seconds())
	return rep, batch, state, nil
}

func (s *Server) reportLocked(done, failed []dag.NodeID, actor string) (BatchReport, error) {
	seen := make(map[dag.NodeID]bool, len(done)+len(failed))
	for _, list := range [2][]dag.NodeID{done, failed} {
		for _, v := range list {
			if int(v) < 0 || int(v) >= s.g.NumNodes() {
				return BatchReport{}, fmt.Errorf("icserver: task %d out of range (batch rejected)", v)
			}
			if seen[v] {
				return BatchReport{}, fmt.Errorf("%w: task %s", errDuplicateAck, s.g.Name(v))
			}
			seen[v] = true
			if !s.done[v] && s.attempts[v] == 0 {
				return BatchReport{}, fmt.Errorf("icserver: task %s was never allocated (batch rejected)", s.g.Name(v))
			}
		}
	}
	// Validation passed: every task is allocated or already done, so the
	// locked cores below cannot fail (an allocated task's parents are all
	// executed — it was ELIGIBLE when granted).
	var rep BatchReport
	for _, v := range done {
		if s.done[v] {
			s.m.duplicateDone.Inc()
			rep.Duplicates++
			continue
		}
		k, err := s.completeLocked(v, actor)
		if err != nil {
			return rep, fmt.Errorf("icserver: report batch applied partially: %w", err)
		}
		rep.NewlyEligible += k
		rep.Completed++
	}
	for _, v := range failed {
		requeued, quarantined, err := s.failLocked(v, actor)
		if err != nil {
			return rep, fmt.Errorf("icserver: report batch applied partially: %w", err)
		}
		if requeued {
			rep.Requeued++
		}
		if quarantined {
			rep.Quarantined++
		}
	}
	return rep, nil
}

// syncGaugesLocked refreshes every gauge from the live state, keeping
// /metrics in lockstep with Status() (caller holds s.mu).
func (s *Server) syncGaugesLocked() {
	s.m.eligible.Set(float64(s.st.NumEligible()))
	s.m.leases.Set(float64(len(s.leases)))
	s.m.quarantined.Set(float64(len(s.quarantined)))
	s.m.completed.Set(float64(s.st.NumExecuted()))
	s.m.epoch.Set(float64(s.epoch))
}

// recordRunEndLocked records the terminal trace event once (caller holds
// s.mu).  The run ends either fully completed or degraded with a
// quarantined remainder.
func (s *Server) recordRunEndLocked() {
	if s.trace == nil || s.traceEnded {
		return
	}
	s.traceEnded = true
	ev := obs.Event{Phase: obs.PhaseRunEnd, Task: -1, Actor: "server",
		Eligible: s.st.NumEligible()}
	if s.degraded {
		ev.Err = fmt.Sprintf("degraded: %d tasks quarantined", len(s.quarantined))
	}
	s.trace.Record(ev)
}

// Shutdown drains the server gracefully: new /task requests get 503
// while in-flight leases may still complete (or fail).  Once no lease is
// outstanding (or ctx expires first), the journal — if any — gets a
// drain record, a final flush, and is closed, so a clean shutdown is
// durably distinguishable from a crash.  Shutdown is idempotent: a
// second call performs no work and waits for the first to finish (or
// for its own ctx), returning the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdownDone != nil {
		done := s.shutdownDone
		s.mu.Unlock()
		select {
		case <-done:
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.shutdownErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.shutdownDone = make(chan struct{})
	s.draining = true
	s.mu.Unlock()

	err := s.awaitDrain(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Journal the drain and flush even on a drain timeout: what happened
	// is durable either way, only the drain marker tells a clean story.
	if s.wal != nil && !s.killed {
		if err == nil {
			s.walAppendLocked(wal.KindDrain, -1, 0)
			err = s.walErr
		}
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
	}
	s.shutdownErr = err
	close(s.shutdownDone)
	return err
}

// awaitDrain blocks until no lease is outstanding or ctx expires.
func (s *Server) awaitDrain(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.leases)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("icserver: shutdown with %d leases in flight: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// Kill terminates the incarnation abruptly — the in-process stand-in
// for SIGKILL in crash harnesses.  The journal (if any) is severed
// without a final flush, every subsequent request gets 503, and the
// in-memory state is abandoned; a successor rebuilds it with Recover.
func (s *Server) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	s.killed = true
	if s.wal != nil {
		s.wal.Kill()
	}
}

// Status snapshots the execution.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Total:        s.g.NumNodes(),
		Completed:    s.st.NumExecuted(),
		Eligible:     s.st.NumEligible(),
		Allocated:    len(s.leases),
		Stalls:       s.stalls,
		Reissues:     s.reissues,
		Failed:       s.failed,
		Quarantined:  len(s.quarantined),
		Epoch:        s.epoch,
		StaleReports: s.staleReports,
	}
}

// Epoch returns this incarnation's fencing token (1 for a fresh run,
// bumped once per Recover).
func (s *Server) Epoch() uint64 { return s.epoch }

// Completed reports whether task v has been completed (first-time done,
// surviving recovery).  Out-of-range tasks report false.  The sharded
// coordinator uses this to reconcile cross-shard credits after a
// restart.
func (s *Server) Completed(v dag.NodeID) bool {
	if int(v) < 0 || int(v) >= s.g.NumNodes() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[v]
}

// Finished reports whether the execution is terminal: every task
// completed, or no further progress is possible (the remaining tasks are
// quarantined or blocked behind quarantined ones, with nothing in
// flight).  Use Status().Completed == Status().Total to distinguish full
// completion from graceful degradation.
func (s *Server) Finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Done() || s.degraded
}

// leaseEntry is one grant in the expiry heap; it is live only while the
// lease map still records the same grant time for the task.
type leaseEntry struct {
	v       dag.NodeID
	granted time.Time
}

// leaseHeap is a min-heap of lease grants ordered by grant time (with a
// fixed lease duration, grant order is expiry order).
type leaseHeap []leaseEntry

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].granted.Before(h[j].granted) }
func (h leaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *leaseHeap) Push(x any)        { *h = append(*h, x.(leaseEntry)) }
func (h *leaseHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
