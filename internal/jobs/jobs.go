// Package jobs turns the single-dag task server (internal/icserver) into
// a multi-tenant job service: a stream of job submissions — each a dagio
// payload or a named family+size — flows through a staged pipeline
// (builder → analyzer → activator, connected by channels) so new jobs
// are built and analyzed concurrently with the execution of earlier
// ones, and a job registry multiplexes every live job across one shared
// client fleet.
//
// Grants carry a job ID and that job's fencing epoch; /tasks and /report
// are job-scoped.  Which job a grant draws from is decided by per-tenant
// weighted-fair (stride) admission: every tenant carries a virtual pass
// that advances by tasks-granted/weight, and grants go to the tenant
// with the minimum pass that has allocatable work — so one tenant's
// burst of submissions cannot starve another's eligible set.  Per-tenant
// queue caps bound admission (backpressure, not unbounded memory).
//
// Recovery composes with the task-level write-ahead journal: a jobs
// directory holds one manifest.jsonl of job lifecycle events (submit
// with the full spec / activate / finish), fsynced per append, plus one
// job-<id>/ wal directory per job.  Recover replays the manifest to
// learn which jobs existed, re-derives each unfinished job's dag and
// schedule deterministically from its spec, and rebuilds each
// previously-active job's exact task state via icserver.Recover — which
// bumps that job's epoch, fencing the dead incarnation's grants.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/obs"
	"icsched/internal/relaxed"
	"icsched/internal/schedcache"
	"icsched/internal/shard"
	"icsched/internal/wal"

	"encoding/json"
)

// Spec describes one job submission: a tenant plus either a named
// family+size or a raw dagio JSON payload (exactly one of the two).
type Spec struct {
	// Tenant names the submitting tenant (required); Weight, when
	// positive, sets the tenant's fair-share weight (default 1, last
	// submission wins).
	Tenant string `json:"tenant"`
	Weight int    `json:"weight,omitempty"`
	// Family+Size reference a named dag family ("wavefront", "fftconv",
	// "prefix") with its IC-optimal schedule.
	Family string `json:"family,omitempty"`
	Size   int    `json:"size,omitempty"`
	// Dag is a dagio JSON payload ({"nodes": n, "arcs": [[u,v],...]});
	// such jobs are scheduled by the MAX-NEW-ELIGIBLE analysis.
	Dag json.RawMessage `json:"dag,omitempty"`
	// Relaxed opts this job into the lock-free k-relaxed grant core with
	// the given shard count (0 = exact locked path; see internal/relaxed).
	// The choice is journaled with the spec, so a recovered job keeps its
	// grant path.
	Relaxed int `json:"relaxed,omitempty"`
	// Shards > 1 cuts the job's dag into that many schedule-guided
	// components executed by embedded shard servers with cross-shard arc
	// forwarding (see internal/shard); 0/1 keeps the single-server core.
	// Journaled with the spec, so a recovered job is re-cut identically.
	Shards int `json:"shards,omitempty"`
}

// Job states, as reported in JobStatus.
const (
	StateQueued   = "queued"   // submitted, waiting for the builder stage
	StateBuilding = "building" // in the builder/analyzer stages
	StateActive   = "active"   // executing: its tasks are grantable
	StateFinished = "finished" // every task completed (or degraded-terminal)
	StateFailed   = "failed"   // build or analysis rejected the spec
)

// Job is one registered job (registry-internal; JobStatus is the view).
type Job struct {
	id    string
	spec  Spec
	state string

	g        *dag.Dag
	nonsinks []dag.NodeID // family jobs: the IC-optimal nonsink prefix
	order    []dag.NodeID
	buildErr error
	cacheHit bool // analysis served from the schedule cache
	replay   bool // steady-state replay: cursor-journaled cached order

	srv taskCore // non-nil only while active

	submittedAt time.Time
	activatedAt time.Time
	finishedAt  time.Time

	// Terminal accounting, frozen at finish (or restored from the
	// manifest for jobs that finished before a recovery).
	nodes       int
	completed   int
	quarantined int
	epoch       uint64
	errMsg      string
}

// tenant is the fair-share state of one submitting tenant.
type tenant struct {
	name      string
	weight    int
	pass      float64 // stride virtual time: tasks granted / weight
	active    []*Job  // activation order
	queued    int     // jobs admitted but not yet active (or failed)
	completed int     // jobs finished successfully
	granted   int     // tasks granted
}

// Config tunes the job service.  The zero value is serviceable.
type Config struct {
	// Lease and MaxAttempts configure every per-job task server
	// (defaults: icserver's own 30s / 5).
	Lease       time.Duration
	MaxAttempts int
	// Wal tunes each job's task journal (durable servers only).
	Wal wal.Options
	// MaxQueued caps jobs admitted but not yet finished per tenant
	// (default 256); submissions beyond it are refused with
	// BackpressureError.
	MaxQueued int
	// Cache is the schedule cache the analyzer stage consults before
	// computing an allocation order (nil = a private default-sized one).
	// Sharing one cache across services shares the analyses.
	Cache *schedcache.Cache
	// Clock injects a time source (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.Cache == nil {
		c.Cache = schedcache.New(schedcache.Options{})
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server is the multi-tenant job service.  Create with New (memory-only)
// or Recover (durable), mount via Handler, and drive a fleet of
// jobs.Client workers at it.
type Server struct {
	mu       sync.Mutex
	cfg      Config
	dir      string // "" = memory-only
	man      *manifest
	jobs     map[string]*Job
	order    []*Job // submission order
	tenants  map[string]*tenant
	nextID   int
	draining bool
	killed   bool
	chClosed bool

	buildCh    chan *Job
	analyzeCh  chan *Job
	activateCh chan *Job
	wg         sync.WaitGroup

	now   func() time.Time
	start time.Time
	reg   *obs.Registry
	m     jobsMetrics
}

type jobsMetrics struct {
	submitted, finished, failed *obs.Counter
	backpressure                *obs.Counter
	grantRequests, granted      *obs.Counter
	reports                     *obs.Counter
	activeJobs, queuedJobs      *obs.Gauge
	jobLatency                  *obs.Histogram
}

// jobLatencyBuckets spans submit→finish times from milliseconds to
// minutes.
var jobLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}

func newJobsMetrics(reg *obs.Registry) jobsMetrics {
	return jobsMetrics{
		submitted:     reg.Counter("icjobs_submitted_total", "jobs admitted"),
		finished:      reg.Counter("icjobs_finished_total", "jobs that reached the terminal state"),
		failed:        reg.Counter("icjobs_failed_total", "jobs rejected by build/analysis"),
		backpressure:  reg.Counter("icjobs_backpressure_total", "submissions refused by the per-tenant queue cap"),
		grantRequests: reg.Counter("icjobs_grant_requests_total", "fleet allocation requests"),
		granted:       reg.Counter("icjobs_tasks_granted_total", "tasks granted across all jobs"),
		reports:       reg.Counter("icjobs_reports_total", "job-scoped report batches accepted"),
		activeJobs:    reg.Gauge("icjobs_active", "jobs currently executing"),
		queuedJobs:    reg.Gauge("icjobs_queued", "jobs admitted but not yet active"),
		jobLatency: reg.Histogram("icjobs_job_latency_seconds",
			"submit-to-finish latency per job", jobLatencyBuckets),
	}
}

// Typed error values the HTTP layer (and in-process callers) map onto
// response codes.
var ErrUnknownJob = errors.New("jobs: unknown job")

// UnavailableError refuses requests on a draining or dead service.
type UnavailableError struct{ Reason string }

func (e UnavailableError) Error() string { return "jobs: unavailable: " + e.Reason }

// BackpressureError refuses a submission over the tenant's queue cap.
type BackpressureError struct{ Tenant string }

func (e BackpressureError) Error() string {
	return fmt.Sprintf("jobs: tenant %s over queue cap", e.Tenant)
}

// StaleEpochError rejects a report fenced against a recovered job; Epoch
// carries the job's current token so the client resyncs in place.
type StaleEpochError struct{ Epoch uint64 }

func (e StaleEpochError) Error() string {
	return fmt.Sprintf("jobs: stale epoch (current %d)", e.Epoch)
}

// New builds a memory-only job service.
func New(cfg Config) *Server {
	s := newServer(cfg, "")
	s.startPipeline()
	return s
}

func newServer(cfg Config, dir string) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		dir:        dir,
		jobs:       make(map[string]*Job),
		tenants:    make(map[string]*tenant),
		nextID:     1,
		buildCh:    make(chan *Job, 4096),
		analyzeCh:  make(chan *Job, 256),
		activateCh: make(chan *Job, 256),
		now:        cfg.Clock,
		reg:        obs.NewRegistry(),
	}
	s.start = s.now()
	s.m = newJobsMetrics(s.reg)
	return s
}

// Recover opens (or creates) a durable job service backed by dir.  An
// empty directory starts a fresh service; otherwise the manifest is
// replayed: finished jobs keep their terminal accounting, jobs that
// were active are rebuilt exactly from their own task journals (with a
// bumped epoch each), and jobs that were admitted but never activated
// re-enter the pipeline.
func Recover(dir string, cfg Config) (*Server, error) {
	events, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s := newServer(cfg, dir)
	if s.man, err = openManifest(dir); err != nil {
		return nil, err
	}
	var activated []*Job // activation-event order
	var queued []*Job    // submission order
	for _, ev := range events {
		switch ev.Event {
		case "submit":
			j := &Job{
				id: ev.Job,
				spec: Spec{Tenant: ev.Tenant, Weight: ev.Weight,
					Family: ev.Family, Size: ev.Size, Dag: ev.Dag,
					Relaxed: ev.Relaxed, Shards: ev.Shards},
				state:       StateQueued,
				submittedAt: time.Unix(0, ev.At),
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j)
			t := s.tenantFor(j.spec.Tenant, j.spec.Weight)
			t.queued++
			var n int
			if _, err := fmt.Sscanf(ev.Job, "j%d", &n); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		case "activate":
			if j := s.jobs[ev.Job]; j != nil && j.state == StateQueued {
				j.activatedAt = time.Unix(0, ev.At)
				j.state = StateActive // provisional; srv attached below
				j.replay = ev.Replay  // journal format: cursor vs per-task grants
				activated = append(activated, j)
			}
		case "finish":
			j := s.jobs[ev.Job]
			if j == nil {
				continue
			}
			j.finishedAt = time.Unix(0, ev.At)
			j.nodes, j.completed, j.quarantined = ev.Nodes, ev.Completed, ev.Quarantined
			t := s.tenantFor(j.spec.Tenant, 0)
			t.queued--
			if ev.Error != "" {
				j.state = StateFailed
				j.errMsg = ev.Error
			} else {
				j.state = StateFinished
				t.completed++
			}
		}
	}
	// Rebuild every job that was active (activated, not finished) from
	// its spec + task journal; the epoch bump inside icserver.Recover
	// fences the dead incarnation's grants.
	for _, j := range activated {
		if j.state != StateActive {
			continue // finished or failed after activation
		}
		g, nonsinks, berr := buildJob(j.spec)
		if berr == nil {
			j.g, j.nonsinks = g, nonsinks
			j.order, berr = s.recoverOrder(j)
		}
		if berr != nil {
			return nil, fmt.Errorf("jobs: recover %s: %w", j.id, berr)
		}
		srv, serr := s.jobCore(j)
		if serr != nil {
			return nil, fmt.Errorf("jobs: recover %s: %w", j.id, serr)
		}
		j.srv = srv
		t := s.tenantFor(j.spec.Tenant, 0)
		t.queued--
		t.active = append(t.active, j)
	}
	for _, j := range s.order {
		if j.state == StateQueued {
			queued = append(queued, j)
		}
	}
	s.syncGaugesLocked()
	s.startPipeline()
	for _, j := range queued {
		select {
		case s.buildCh <- j:
		default:
			return nil, fmt.Errorf("jobs: recover: build queue overflow re-admitting %s", j.id)
		}
	}
	return s, nil
}

// jobCore builds the per-job task server: memory-only under New,
// journal-backed (fresh or replayed) under Recover.  Jobs with
// Spec.Shards > 1 get the sharded coordinator core instead of a single
// server.
func (s *Server) jobCore(j *Job) (taskCore, error) {
	if j.spec.Shards > 1 {
		return newShardedCore(j, j.spec.Shards, s.dir, s.cfg)
	}
	var policy heur.Policy
	if j.replay {
		policy = schedcache.Replay("IC-CACHED", j.order)
	} else {
		policy = heur.Static("IC-OPTIMAL", j.order)
	}
	var opts []icserver.Option
	if s.cfg.Lease > 0 {
		opts = append(opts, icserver.WithLease(s.cfg.Lease))
	}
	if s.cfg.MaxAttempts > 0 {
		opts = append(opts, icserver.WithMaxAttempts(s.cfg.MaxAttempts))
	}
	if s.cfg.Clock != nil {
		opts = append(opts, icserver.WithClock(s.cfg.Clock))
	}
	if j.spec.Relaxed > 0 {
		opts = append(opts, icserver.WithRelaxed(j.spec.Relaxed))
	}
	if s.dir == "" {
		return icserver.New(j.g, policy, opts...), nil
	}
	return icserver.Recover(filepath.Join(s.dir, "job-"+j.id), j.g, policy, s.cfg.Wal, opts...)
}

// Metrics returns the service's registry (GET /metrics serves it).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats snapshots the schedule cache's counters.
func (s *Server) CacheStats() schedcache.Stats { return s.cfg.Cache.Stats() }

// startPipeline launches the builder → analyzer → activator stages.
func (s *Server) startPipeline() {
	s.wg.Add(3)
	go s.builder()
	go s.analyzer()
	go s.activator()
}

// builder resolves specs into dags, concurrently with execution of
// already-active jobs.
func (s *Server) builder() {
	defer s.wg.Done()
	defer close(s.analyzeCh)
	for j := range s.buildCh {
		s.mu.Lock()
		if j.state == StateQueued {
			j.state = StateBuilding
		}
		s.mu.Unlock()
		j.g, j.nonsinks, j.buildErr = buildJob(j.spec)
		s.analyzeCh <- j
	}
}

// analyzer resolves each job's allocation order (the scheduling
// analysis), still off the grant path.  The schedule cache turns the
// analysis into a canonical-hash lookup for repeated shapes: a warm hit
// skips the computation entirely, and an exact (same-labeling) hit on a
// non-relaxed job additionally arms steady-state replay — grants become
// cursor walks over the cached order.
func (s *Server) analyzer() {
	defer s.wg.Done()
	defer close(s.activateCh)
	for j := range s.analyzeCh {
		if j.buildErr == nil {
			j.buildErr = s.analyzeCached(j)
		}
		s.activateCh <- j
	}
}

// analyzeCached runs the analyzer stage's work for one built job through
// the schedule cache.
func (s *Server) analyzeCached(j *Job) error {
	res, err := s.cfg.Cache.GetOrCompute(j.g, cacheClass(j.spec), func() ([]dag.NodeID, string, error) {
		order, err := analyzeJob(j.g, j.nonsinks)
		return order, cacheProvenance(j.spec), err
	})
	if err != nil {
		return err
	}
	// Published under the lock: status snapshots read these fields while
	// the pipeline is still running.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.order = res.Order
	j.cacheHit = res.Hit
	// Replay requires an exact-labeling entry: identity translation means
	// the cached order is byte-for-byte what analyzeJob(g) re-derives, so
	// a recovered incarnation folds the cursor journal against the very
	// same order.  Relaxed jobs grant out of order and keep per-task
	// records; sharded jobs journal per shard, which one job-level cursor
	// cannot describe.
	j.replay = j.spec.Relaxed == 0 && j.spec.Shards <= 1 && res.Exact
	return nil
}

// activator attaches the per-job task server and admits the job to its
// tenant's active list, making its tasks grantable.
func (s *Server) activator() {
	defer s.wg.Done()
	for j := range s.activateCh {
		s.mu.Lock()
		if s.killed || s.draining {
			// Dropped from memory; the manifest still holds the submission,
			// so a future Recover re-admits it.
			s.mu.Unlock()
			continue
		}
		if j.buildErr != nil {
			s.failJobLocked(j, j.buildErr)
			s.mu.Unlock()
			continue
		}
		srv, err := s.jobCore(j)
		if err != nil {
			s.failJobLocked(j, err)
			s.mu.Unlock()
			continue
		}
		j.srv = srv
		j.state = StateActive
		j.activatedAt = s.now()
		_ = s.man.append(manifestEvent{Event: "activate", At: j.activatedAt.UnixNano(),
			Job: j.id, Replay: j.replay})
		t := s.tenantFor(j.spec.Tenant, j.spec.Weight)
		if len(t.active) == 0 {
			// A tenant rejoining after idling must not cash in the pass it
			// never advanced: it re-enters at the current fair front.
			if min, ok := s.minActivePassLocked(); ok && min > t.pass {
				t.pass = min
			}
		}
		t.active = append(t.active, j)
		t.queued--
		s.syncGaugesLocked()
		s.mu.Unlock()
	}
}

// failJobLocked marks a job rejected by build/analysis (caller holds
// s.mu).
func (s *Server) failJobLocked(j *Job, err error) {
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finishedAt = s.now()
	t := s.tenantFor(j.spec.Tenant, 0)
	t.queued--
	_ = s.man.append(manifestEvent{Event: "finish", At: j.finishedAt.UnixNano(),
		Job: j.id, Error: j.errMsg})
	s.m.failed.Inc()
	s.syncGaugesLocked()
}

// tenantFor returns (creating if needed) the tenant record; a positive
// weight updates the fair share.
func (s *Server) tenantFor(name string, weight int) *tenant {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name, weight: 1}
		s.tenants[name] = t
	}
	if weight > 0 {
		t.weight = weight
	}
	return t
}

// minActivePassLocked returns the minimum pass among tenants with active
// jobs (caller holds s.mu).
func (s *Server) minActivePassLocked() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range s.tenants {
		if len(t.active) == 0 {
			continue
		}
		if !ok || t.pass < min {
			min, ok = t.pass, true
		}
	}
	return min, ok
}

// Submit admits one job: validated, journaled durably (submit event
// fsynced before the ack), and queued into the pipeline.  The returned
// JobStatus carries the assigned job ID.
func (s *Server) Submit(sp Spec) (JobStatus, error) {
	if sp.Tenant == "" {
		return JobStatus{}, fmt.Errorf("jobs: submission without a tenant")
	}
	if (sp.Family == "") == (len(sp.Dag) == 0) {
		return JobStatus{}, fmt.Errorf("jobs: submission needs exactly one of family or dag")
	}
	if sp.Weight < 0 {
		return JobStatus{}, fmt.Errorf("jobs: negative weight %d", sp.Weight)
	}
	if sp.Relaxed < 0 || sp.Relaxed > relaxed.MaxShards {
		return JobStatus{}, fmt.Errorf("jobs: relaxed shard count %d outside [0, %d]", sp.Relaxed, relaxed.MaxShards)
	}
	if sp.Shards < 0 || sp.Shards > shard.MaxShards {
		return JobStatus{}, fmt.Errorf("jobs: shard count %d outside [0, %d]", sp.Shards, shard.MaxShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return JobStatus{}, UnavailableError{icserver.ReasonKilled}
	}
	if s.draining {
		return JobStatus{}, UnavailableError{icserver.ReasonDraining}
	}
	t := s.tenantFor(sp.Tenant, sp.Weight)
	if t.queued+len(t.active) >= s.cfg.MaxQueued {
		s.m.backpressure.Inc()
		return JobStatus{}, BackpressureError{sp.Tenant}
	}
	j := &Job{
		id:          fmt.Sprintf("j%d", s.nextID),
		spec:        sp,
		state:       StateQueued,
		submittedAt: s.now(),
	}
	if err := s.man.append(manifestEvent{Event: "submit", At: j.submittedAt.UnixNano(),
		Job: j.id, Tenant: sp.Tenant, Weight: sp.Weight,
		Family: sp.Family, Size: sp.Size, Dag: sp.Dag, Relaxed: sp.Relaxed,
		Shards: sp.Shards}); err != nil {
		return JobStatus{}, err
	}
	select {
	case s.buildCh <- j:
	default:
		s.m.backpressure.Inc()
		_ = s.man.append(manifestEvent{Event: "finish", At: s.now().UnixNano(),
			Job: j.id, Error: "jobs: build queue full"})
		return JobStatus{}, BackpressureError{sp.Tenant}
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	t.queued++
	s.m.submitted.Inc()
	s.syncGaugesLocked()
	return s.jobStatusLocked(j), nil
}

// TaskGrant is one granted task of a job-scoped grant.
type TaskGrant struct {
	Task dag.NodeID `json:"task"`
	Name string     `json:"name"`
}

// GrantSet is one allocation: up to k tasks of ONE job (so a worker's
// batch — compute then report — stays job-scoped), stamped with the
// job's fencing epoch.  An empty Tasks slice means nothing is
// allocatable anywhere right now.
type GrantSet struct {
	Job   string      `json:"job,omitempty"`
	Epoch uint64      `json:"epoch,omitempty"`
	Tasks []TaskGrant `json:"tasks"`
}

// Allocate grants up to k tasks from the job the weighted-fair policy
// picks — the in-process form of POST /tasks.
func (s *Server) Allocate(k int) (GrantSet, error) {
	if k < 1 {
		return GrantSet{}, fmt.Errorf("jobs: batch size %d < 1", k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return GrantSet{}, UnavailableError{icserver.ReasonKilled}
	}
	if s.draining {
		return GrantSet{}, UnavailableError{icserver.ReasonDraining}
	}
	s.m.grantRequests.Inc()
	return s.pickLocked(k), nil
}

// pickLocked implements stride scheduling across tenants (caller holds
// s.mu): the tenant with the minimum pass (ties by name) that has
// allocatable work wins, and its pass advances by granted/weight.  Jobs
// within a tenant are drained in activation order; a job discovered
// terminal during the scan is finalized on the spot.
func (s *Server) pickLocked(k int) GrantSet {
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if len(t.active) > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Slice(tenants, func(i, j int) bool {
		if tenants[i].pass != tenants[j].pass {
			return tenants[i].pass < tenants[j].pass
		}
		return tenants[i].name < tenants[j].name
	})
	for _, t := range tenants {
		jobs := append([]*Job(nil), t.active...)
		for _, j := range jobs {
			if j.state != StateActive {
				continue // finalized earlier in this same scan
			}
			batch, st := j.srv.AllocateBatch(k)
			if st == icserver.AllocFinished {
				s.finalizeJobLocked(j)
				continue
			}
			if len(batch) == 0 {
				continue
			}
			t.pass += float64(len(batch)) / float64(t.weight)
			t.granted += len(batch)
			s.m.granted.Add(float64(len(batch)))
			grant := GrantSet{Job: j.id, Epoch: j.srv.Epoch(),
				Tasks: make([]TaskGrant, len(batch))}
			for i, v := range batch {
				grant.Tasks[i] = TaskGrant{Task: v, Name: j.g.Name(v)}
			}
			return grant
		}
	}
	return GrantSet{Tasks: []TaskGrant{}}
}

// finalizeJobLocked retires a terminal job: terminal accounting frozen,
// tenant bookkeeping advanced, finish journaled, and the job's own task
// journal flushed and closed (caller holds s.mu).
func (s *Server) finalizeJobLocked(j *Job) {
	st := j.srv.Status()
	j.nodes, j.completed, j.quarantined, j.epoch = st.Total, st.Completed, st.Quarantined, st.Epoch
	j.state = StateFinished
	j.finishedAt = s.now()
	t := s.tenantFor(j.spec.Tenant, 0)
	for i, a := range t.active {
		if a == j {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	t.completed++
	_ = s.man.append(manifestEvent{Event: "finish", At: j.finishedAt.UnixNano(),
		Job: j.id, Nodes: j.nodes, Completed: j.completed, Quarantined: j.quarantined})
	s.m.finished.Inc()
	s.m.jobLatency.Observe(j.finishedAt.Sub(j.submittedAt).Seconds())
	// No lease is outstanding on a terminal job, so the drain inside
	// Shutdown returns immediately; this just flushes and closes the
	// job's journal.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = j.srv.Shutdown(ctx)
	cancel()
	s.syncGaugesLocked()
}

// ReportResult is the /report reply: the ack summary, whether the acked
// job reached its terminal state, and — when the request piggybacked an
// ask — the next grant (possibly from a different job).
type ReportResult struct {
	icserver.BatchReport
	JobFinished bool     `json:"jobFinished,omitempty"`
	Grant       GrantSet `json:"grant"`
}

// Report acks a job-scoped batch of completions and hand-backs and,
// when k > 0, piggybacks the next weighted-fair grant under the same
// lock acquisition — the in-process form of POST /report.  A nonzero
// epoch that does not match the job's current incarnation is rejected
// with StaleEpochError (carrying the current epoch, so the client
// resyncs without another round trip).  Reports to an already-finished
// job are absorbed as idempotent duplicates — the retried-report-
// across-recovery case.
func (s *Server) Report(jobID string, done, failed []dag.NodeID, epoch uint64, k int) (ReportResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return ReportResult{}, UnavailableError{icserver.ReasonKilled}
	}
	j, ok := s.jobs[jobID]
	if !ok {
		return ReportResult{}, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	var res ReportResult
	switch j.state {
	case StateFinished:
		res.BatchReport = icserver.BatchReport{Duplicates: len(done)}
		res.JobFinished = true
	case StateActive:
		if epoch != 0 && epoch != j.srv.Epoch() {
			return ReportResult{}, StaleEpochError{j.srv.Epoch()}
		}
		rep, err := j.srv.Report(done, failed)
		if err != nil {
			return ReportResult{}, err
		}
		res.BatchReport = rep
		if j.srv.Finished() {
			s.finalizeJobLocked(j)
			res.JobFinished = true
		}
	default:
		return ReportResult{}, fmt.Errorf("jobs: job %s is %s, not reportable", jobID, j.state)
	}
	s.m.reports.Inc()
	res.Grant = GrantSet{Tasks: []TaskGrant{}}
	if k > 0 && !s.draining {
		res.Grant = s.pickLocked(k)
	}
	return res, nil
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	Job    string `json:"job"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Family string `json:"family,omitempty"`
	Size   int    `json:"size,omitempty"`
	// Nodes/Completed/Quarantined/Epoch are live for active jobs, frozen
	// at finish for terminal ones (Epoch 0 for jobs that finished before
	// a recovery — their task journals are gone).
	Nodes       int    `json:"nodes,omitempty"`
	Completed   int    `json:"completed,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	// CacheHit: analysis came from the schedule cache.  Replay: the job
	// executes in steady-state replay mode (cursor-journaled cached
	// order).  Shards: the job runs cut across this many shard servers.
	CacheHit bool `json:"cacheHit,omitempty"`
	Replay   bool `json:"replay,omitempty"`
	Shards   int  `json:"shards,omitempty"`

	SubmittedMillis int64   `json:"submittedMillis"`
	FinishedMillis  int64   `json:"finishedMillis,omitempty"`
	LatencyMillis   float64 `json:"latencyMillis,omitempty"`
	Error           string  `json:"error,omitempty"`
}

func (s *Server) jobStatusLocked(j *Job) JobStatus {
	st := JobStatus{
		Job: j.id, Tenant: j.spec.Tenant, State: j.state,
		Family: j.spec.Family, Size: j.spec.Size,
		CacheHit: j.cacheHit, Replay: j.replay, Shards: j.spec.Shards,
		SubmittedMillis: j.submittedAt.UnixMilli(),
		Error:           j.errMsg,
	}
	switch j.state {
	case StateActive:
		live := j.srv.Status()
		st.Nodes, st.Completed, st.Quarantined, st.Epoch =
			live.Total, live.Completed, live.Quarantined, live.Epoch
	case StateFinished:
		st.Nodes, st.Completed, st.Quarantined, st.Epoch =
			j.nodes, j.completed, j.quarantined, j.epoch
		st.FinishedMillis = j.finishedAt.UnixMilli()
		st.LatencyMillis = float64(j.finishedAt.Sub(j.submittedAt).Microseconds()) / 1000
	case StateFailed:
		st.FinishedMillis = j.finishedAt.UnixMilli()
	}
	return st
}

// Jobs lists every registered job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out[i] = s.jobStatusLocked(j)
	}
	return out
}

// JobByID returns one job's status.
func (s *Server) JobByID(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.jobStatusLocked(j), true
}

// TenantStatus is the fair-share view of one tenant.
type TenantStatus struct {
	Tenant        string  `json:"tenant"`
	Weight        int     `json:"weight"`
	ActiveJobs    int     `json:"activeJobs"`
	QueuedJobs    int     `json:"queuedJobs"`
	CompletedJobs int     `json:"completedJobs"`
	GrantedTasks  int     `json:"grantedTasks"`
	Pass          float64 `json:"pass"`
}

// Status is the service-level snapshot (GET /status).
type Status struct {
	Queued   int  `json:"queued"`
	Building int  `json:"building"`
	Active   int  `json:"active"`
	Finished int  `json:"finished"`
	Failed   int  `json:"failed"`
	Draining bool `json:"draining"`
	// Tenants is sorted by name.
	Tenants []TenantStatus `json:"tenants"`
}

// ServiceStatus snapshots the whole service.
func (s *Server) ServiceStatus() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Draining: s.draining}
	for _, j := range s.order {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateBuilding:
			st.Building++
		case StateActive:
			st.Active++
		case StateFinished:
			st.Finished++
		case StateFailed:
			st.Failed++
		}
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tenants[name]
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: t.name, Weight: t.weight,
			ActiveJobs: len(t.active), QueuedJobs: t.queued,
			CompletedJobs: t.completed, GrantedTasks: t.granted,
			Pass: t.pass,
		})
	}
	return st
}

// syncGaugesLocked refreshes the queue/active gauges (caller holds
// s.mu).
func (s *Server) syncGaugesLocked() {
	active, queued := 0, 0
	for _, t := range s.tenants {
		active += len(t.active)
		queued += t.queued
	}
	s.m.activeJobs.Set(float64(active))
	s.m.queuedJobs.Set(float64(queued))
}

// Close drains the service gracefully: no new submissions or grants,
// the pipeline runs dry (jobs not yet active stay journaled for a
// future Recover), every active job's journal is flushed and closed,
// and the manifest is closed.  Idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return UnavailableError{icserver.ReasonKilled}
	}
	s.draining = true
	if !s.chClosed {
		s.chClosed = true
		close(s.buildCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	var active []*Job
	for _, t := range s.tenants {
		active = append(active, t.active...)
	}
	man := s.man
	s.mu.Unlock()
	var err error
	for _, j := range active {
		if serr := j.srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	if cerr := man.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill terminates the service abruptly — the in-process SIGKILL
// stand-in: every active job's journal is severed without a final
// flush, the manifest likewise, and every subsequent request is
// refused.  A successor rebuilds the whole multi-job state with
// Recover.
func (s *Server) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	s.killed = true
	if !s.chClosed {
		s.chClosed = true
		close(s.buildCh)
	}
	for _, t := range s.tenants {
		for _, j := range t.active {
			j.srv.Kill()
		}
	}
	s.man.kill()
}
