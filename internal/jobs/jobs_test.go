package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/difftest"
	"icsched/internal/wal"
)

// closeServer bounds the graceful drain so a test bug (an unreported
// lease) fails fast instead of hanging the suite.
func closeServer(s *Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Close(ctx)
}

// refVals executes a job's analyzed order serially — the reference the
// fleet's values must match bit for bit.
func refVals(t *testing.T, sp Spec) (*dag.Dag, []uint64) {
	t.Helper()
	g, nonsinks, err := buildJob(sp)
	if err != nil {
		t.Fatalf("buildJob: %v", err)
	}
	order, err := analyzeJob(g, nonsinks)
	if err != nil {
		t.Fatalf("analyzeJob: %v", err)
	}
	vals := make([]uint64, g.NumNodes())
	for _, v := range order {
		vals[v] = difftest.NodeValue(g, v, vals)
	}
	return g, vals
}

// harness drives the in-process fleet loop: allocate, compute (FNV into
// per-job value slices), report, until every job is terminal.
type harness struct {
	t      *testing.T
	s      *Server
	graphs map[string]*dag.Dag
	vals   map[string][]uint64
}

func newHarness(t *testing.T, s *Server) *harness {
	return &harness{t: t, s: s,
		graphs: make(map[string]*dag.Dag), vals: make(map[string][]uint64)}
}

// track registers a submitted job's dag so compute can hash into it.
func (h *harness) track(id string, sp Spec) {
	g, _, err := buildJob(sp)
	if err != nil {
		h.t.Fatalf("track %s: %v", id, err)
	}
	h.graphs[id] = g
	if h.vals[id] == nil {
		h.vals[id] = make([]uint64, g.NumNodes())
	}
}

func (h *harness) submit(sp Spec) string {
	h.t.Helper()
	st, err := h.s.Submit(sp)
	if err != nil {
		h.t.Fatalf("submit: %v", err)
	}
	h.track(st.Job, sp)
	return st.Job
}

// compute hashes one granted task (idempotent across re-grants).
func (h *harness) compute(job string, task dag.NodeID) {
	g := h.graphs[job]
	h.vals[job][task] = difftest.NodeValue(g, task, h.vals[job])
}

// drain loops allocate→compute→report until every tracked job is
// terminal (or the deadline passes).  Returns grants per tenant.
func (h *harness) drain(k int) map[string]int {
	h.t.Helper()
	granted := make(map[string]int)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			h.t.Fatalf("drain: jobs still unfinished: %+v", h.s.Jobs())
		}
		grant, err := h.s.Allocate(k)
		if err != nil {
			h.t.Fatalf("allocate: %v", err)
		}
		if len(grant.Tasks) == 0 {
			if h.allTerminal() {
				return granted
			}
			time.Sleep(time.Millisecond) // pipeline still building
			continue
		}
		if st, ok := h.s.JobByID(grant.Job); ok {
			granted[st.Tenant] += len(grant.Tasks)
		}
		done := make([]dag.NodeID, len(grant.Tasks))
		for i, tg := range grant.Tasks {
			h.compute(grant.Job, tg.Task)
			done[i] = tg.Task
		}
		if _, err := h.s.Report(grant.Job, done, nil, grant.Epoch, 0); err != nil {
			h.t.Fatalf("report %s: %v", grant.Job, err)
		}
	}
}

func (h *harness) allTerminal() bool {
	for _, st := range h.s.Jobs() {
		if st.State != StateFinished && st.State != StateFailed {
			return false
		}
	}
	return len(h.s.Jobs()) > 0
}

// checkValues asserts every tracked job computed the serial reference
// bit for bit.
func (h *harness) checkValues(specs map[string]Spec) {
	h.t.Helper()
	for id, sp := range specs {
		_, want := refVals(h.t, sp)
		for v, got := range h.vals[id] {
			if got != want[v] {
				h.t.Fatalf("job %s node %d = %#x, want %#x (serial reference)", id, v, got, want[v])
			}
		}
	}
}

func rawDag(nodes int, arcs [][2]int) json.RawMessage {
	doc := struct {
		Nodes int      `json:"nodes"`
		Arcs  [][2]int `json:"arcs"`
	}{nodes, arcs}
	data, _ := json.Marshal(doc)
	return data
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	cases := []struct {
		name string
		sp   Spec
	}{
		{"no tenant", Spec{Family: "prefix", Size: 8}},
		{"family and dag", Spec{Tenant: "a", Family: "prefix", Size: 8, Dag: rawDag(2, nil)}},
		{"neither family nor dag", Spec{Tenant: "a"}},
		{"negative weight", Spec{Tenant: "a", Family: "prefix", Size: 8, Weight: -1}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.sp); err == nil {
			t.Errorf("%s: submission accepted, want error", c.name)
		}
	}
	// Build-stage rejections surface asynchronously as failed jobs.
	for _, sp := range []Spec{
		{Tenant: "a", Family: "nosuch", Size: 8},
		{Tenant: "a", Family: "wavefront", Size: 100000},
		{Tenant: "a", Dag: rawDag(0, nil)},
	} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitState(t, s, st.Job, StateFailed)
	}
}

func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.JobByID(id)
		if ok && st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineRunsJobsToCompletion drives a mixed three-family +
// raw-dag stream through the in-process API and checks every job's
// values against the serial reference.
func TestPipelineRunsJobsToCompletion(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	specs := map[string]Spec{}
	for _, sp := range []Spec{
		{Tenant: "a", Family: "wavefront", Size: 4},
		{Tenant: "a", Family: "fftconv", Size: 3},
		{Tenant: "b", Family: "prefix", Size: 16},
		{Tenant: "b", Dag: rawDag(5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}})},
	} {
		specs[h.submit(sp)] = sp
	}
	h.drain(4)
	h.checkValues(specs)
	for id := range specs {
		st, _ := s.JobByID(id)
		if st.State != StateFinished {
			t.Fatalf("job %s state %q", id, st.State)
		}
		if st.Completed != st.Nodes || st.Nodes == 0 {
			t.Fatalf("job %s completed %d of %d", id, st.Completed, st.Nodes)
		}
		if st.Epoch == 0 {
			t.Fatalf("job %s finished without a visible epoch", id)
		}
		if st.LatencyMillis < 0 || st.FinishedMillis < st.SubmittedMillis {
			t.Fatalf("job %s timestamps: %+v", id, st)
		}
	}
	sum := s.ServiceStatus()
	if sum.Finished != 4 || sum.Active != 0 || sum.Failed != 0 {
		t.Fatalf("service status %+v", sum)
	}
	var completed int
	for _, ts := range sum.Tenants {
		completed += ts.CompletedJobs
	}
	if completed != 4 {
		t.Fatalf("tenant completed-jobs sum %d, want 4", completed)
	}
}

// TestRelaxedJob opts jobs into the lock-free relaxed grant core and
// checks that they run to completion with bit-identical values next to
// locked-path jobs, that the shard count is validated, and that the
// choice survives manifest recovery.
func TestRelaxedJob(t *testing.T) {
	s := New(Config{})
	h := newHarness(t, s)
	specs := map[string]Spec{}
	for _, sp := range []Spec{
		{Tenant: "a", Family: "wavefront", Size: 4, Relaxed: 4},
		{Tenant: "a", Family: "prefix", Size: 16},
		{Tenant: "b", Dag: rawDag(5, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}}), Relaxed: 2},
	} {
		specs[h.submit(sp)] = sp
	}
	h.drain(4)
	h.checkValues(specs)
	for id := range specs {
		if st, _ := s.JobByID(id); st.State != StateFinished || st.Completed != st.Nodes {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	for _, bad := range []int{-1, 1000} {
		if _, err := s.Submit(Spec{Tenant: "a", Family: "prefix", Size: 8, Relaxed: bad}); err == nil {
			t.Errorf("relaxed=%d accepted, want error", bad)
		}
	}
	if err := closeServer(s); err != nil {
		t.Fatal(err)
	}

	// Durable: a mid-flight relaxed job keeps its grant path across
	// recovery (the spec travels through the manifest).
	dir := t.TempDir()
	cfg := Config{Wal: wal.Options{SyncEvery: 1}}
	ds, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dh := newHarness(t, ds)
	sp := Spec{Tenant: "a", Family: "wavefront", Size: 8, Relaxed: 4}
	id := dh.submit(sp)
	waitState(t, ds, id, StateActive)
	ds.Kill()
	ds2, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(ds2)
	ds2.mu.Lock()
	j := ds2.jobs[id]
	gotRelaxed, srv := j.spec.Relaxed, j.srv
	ds2.mu.Unlock()
	if gotRelaxed != 4 {
		t.Fatalf("recovered spec relaxed = %d, want 4", gotRelaxed)
	}
	if srv == nil || srv.RelaxedShards() != 4 {
		t.Fatalf("recovered job core not relaxed: %+v", srv)
	}
	dh2 := newHarness(t, ds2)
	dh2.track(id, sp)
	dh2.drain(4)
	dh2.checkValues(map[string]Spec{id: sp})
}

// TestShardedJob runs jobs cut across embedded shard servers (Spec.
// Shards > 1) next to single-server jobs and checks bit-identical
// values, that the shard count is validated and disables steady-state
// replay, and that the cut survives manifest recovery.
func TestShardedJob(t *testing.T) {
	s := New(Config{})
	h := newHarness(t, s)
	specs := map[string]Spec{}
	for _, sp := range []Spec{
		{Tenant: "a", Family: "wavefront", Size: 8, Shards: 3},
		{Tenant: "a", Family: "wavefront", Size: 8},
		{Tenant: "b", Family: "prefix", Size: 16, Shards: 2},
		{Tenant: "b", Dag: rawDag(6, [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 5}}), Shards: 2},
	} {
		specs[h.submit(sp)] = sp
	}
	h.drain(4)
	h.checkValues(specs)
	for id, sp := range specs {
		st, _ := s.JobByID(id)
		if st.State != StateFinished || st.Completed != st.Nodes {
			t.Fatalf("job %s: %+v", id, st)
		}
		if st.Shards != sp.Shards {
			t.Errorf("job %s shards = %d, want %d", id, st.Shards, sp.Shards)
		}
		if sp.Shards > 1 && st.Replay {
			t.Errorf("sharded job %s armed replay", id)
		}
	}
	for _, bad := range []int{-1, 1000} {
		if _, err := s.Submit(Spec{Tenant: "a", Family: "prefix", Size: 8, Shards: bad}); err == nil {
			t.Errorf("shards=%d accepted, want error", bad)
		}
	}
	if err := closeServer(s); err != nil {
		t.Fatal(err)
	}

	// Durable: a mid-flight sharded job is re-cut identically across
	// recovery (the spec travels through the manifest) and the shard
	// journals resume it.
	dir := t.TempDir()
	cfg := Config{Wal: wal.Options{SyncEvery: 1}}
	ds, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dh := newHarness(t, ds)
	sp := Spec{Tenant: "a", Family: "wavefront", Size: 8, Shards: 3}
	id := dh.submit(sp)
	waitState(t, ds, id, StateActive)
	ds.Kill()
	ds2, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(ds2)
	ds2.mu.Lock()
	j := ds2.jobs[id]
	gotShards, srv := j.spec.Shards, j.srv
	ds2.mu.Unlock()
	if gotShards != 3 {
		t.Fatalf("recovered spec shards = %d, want 3", gotShards)
	}
	if _, ok := srv.(*shardedCore); !ok {
		t.Fatalf("recovered job core is %T, want *shardedCore", srv)
	}
	dh2 := newHarness(t, ds2)
	dh2.track(id, sp)
	dh2.drain(4)
	dh2.checkValues(map[string]Spec{id: sp})
}

// TestWeightedFairShare pins the stride policy: with wide-open dags
// (every task eligible at once) a weight-2 tenant receives twice the
// grant rate of a weight-1 tenant while both have work.
func TestWeightedFairShare(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	flat := rawDag(64, nil) // 64 independent tasks: fairness is the only limiter
	for i := 0; i < 3; i++ {
		h.submit(Spec{Tenant: "heavy", Weight: 2, Dag: flat})
		h.submit(Spec{Tenant: "light", Weight: 1, Dag: flat})
	}
	// Wait until both tenants have active work so the counted prefix is
	// contended from the first grant.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sum := s.ServiceStatus()
		active := 0
		for _, ts := range sum.Tenants {
			if ts.ActiveJobs > 0 {
				active++
			}
		}
		if active == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenants never both active")
		}
		time.Sleep(time.Millisecond)
	}
	granted := map[string]int{}
	for i := 0; i < 120; i++ {
		grant, err := s.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			t.Fatalf("empty grant at %d with both tenants loaded", i)
		}
		st, _ := s.JobByID(grant.Job)
		granted[st.Tenant] += len(grant.Tasks)
		done := []dag.NodeID{grant.Tasks[0].Task}
		h.compute(grant.Job, done[0])
		if _, err := s.Report(grant.Job, done, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(granted["heavy"]) / float64(granted["light"])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("heavy:light grant ratio = %.2f (%d:%d), want ~2.0",
			ratio, granted["heavy"], granted["light"])
	}
	h.drain(8) // finish everything so Close is clean
}

func TestBackpressurePerTenant(t *testing.T) {
	s := New(Config{MaxQueued: 2})
	defer closeServer(s)
	sp := Spec{Tenant: "a", Family: "prefix", Size: 8}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(sp); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(sp)
	var busy BackpressureError
	if !errors.As(err, &busy) || busy.Tenant != "a" {
		t.Fatalf("third submission: %v, want BackpressureError{a}", err)
	}
	// Another tenant is unaffected: the cap is per tenant.
	if _, err := s.Submit(Spec{Tenant: "b", Family: "prefix", Size: 8}); err != nil {
		t.Fatalf("tenant b refused: %v", err)
	}
}

// TestReportFencingAndFinishedIdempotence pins the job-scoped report
// edge cases: a stale epoch is rejected with the current token, a
// duplicate task ID within one batch is rejected whole, and reports to
// an already-finished job are absorbed as idempotent duplicates.
func TestReportFencingAndFinishedIdempotence(t *testing.T) {
	s := New(Config{})
	defer closeServer(s)
	h := newHarness(t, s)
	sp := Spec{Tenant: "a", Dag: rawDag(3, nil)}
	id := h.submit(sp)
	waitState(t, s, id, StateActive)
	grant, err := s.Allocate(1)
	if err != nil || len(grant.Tasks) != 1 {
		t.Fatalf("allocate: %v %+v", err, grant)
	}
	// Stale epoch: rejected, current epoch carried for resync.
	_, err = s.Report(id, []dag.NodeID{grant.Tasks[0].Task}, nil, grant.Epoch+7, 0)
	var stale StaleEpochError
	if !errors.As(err, &stale) || stale.Epoch != grant.Epoch {
		t.Fatalf("stale report: %v, want StaleEpochError{%d}", err, grant.Epoch)
	}
	// Duplicate task IDs in one batch: the whole batch is rejected.
	v := grant.Tasks[0].Task
	if _, err := s.Report(id, []dag.NodeID{v, v}, nil, grant.Epoch, 0); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate-in-batch report: %v, want twice-in-one-batch rejection", err)
	}
	// Unknown job.
	if _, err := s.Report("j999", []dag.NodeID{0}, nil, 0, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job report: %v", err)
	}
	// Report the granted task correctly so its lease clears and drain can
	// finish the job.
	h.compute(id, v)
	if _, err := s.Report(id, []dag.NodeID{v}, nil, grant.Epoch, 0); err != nil {
		t.Fatalf("valid report: %v", err)
	}
	h.drain(4)
	// Report to the finished job: pure duplicates, no error, flagged
	// finished so the client stops retrying.
	res, err := s.Report(id, []dag.NodeID{0, 1}, nil, 0, 0)
	if err != nil || res.Duplicates != 2 || !res.JobFinished {
		t.Fatalf("finished-job report: %+v, %v", res, err)
	}
}

// TestRecoverMidStream kills the service with jobs in flight and checks
// the successor rebuilds the whole multi-job state: finished jobs keep
// their accounting, active jobs resume under a bumped epoch with their
// journaled completions intact, and the combined execution stays
// bit-identical to the serial reference.
func TestRecoverMidStream(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Wal: wal.Options{SyncEvery: 1}}
	s, err := Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, s)
	specs := map[string]Spec{}
	quick := Spec{Tenant: "a", Family: "prefix", Size: 8}
	// Big enough that it cannot finish while the quick job drains, even
	// with fairness splitting the grants.
	slow := Spec{Tenant: "b", Family: "wavefront", Size: 16}
	qid := h.submit(quick)
	specs[qid] = quick
	sid := h.submit(slow)
	specs[sid] = slow

	// Finish the quick job entirely, then run the slow one partway.
	waitState(t, s, qid, StateActive)
	waitState(t, s, sid, StateActive)
	for {
		st, _ := s.JobByID(qid)
		if st.State == StateFinished {
			break
		}
		grant, err := s.Allocate(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Tasks) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		done := make([]dag.NodeID, len(grant.Tasks))
		for i, tg := range grant.Tasks {
			h.compute(grant.Job, tg.Task)
			done[i] = tg.Task
		}
		if _, err := s.Report(grant.Job, done, nil, grant.Epoch, 0); err != nil {
			t.Fatal(err)
		}
	}
	slowSt, _ := s.JobByID(sid)
	if slowSt.State != StateActive {
		t.Fatalf("slow job already %s before the kill; grow its size", slowSt.State)
	}
	if slowSt.Epoch != 1 {
		t.Fatalf("pre-kill epoch %d, want 1", slowSt.Epoch)
	}
	preDone := slowSt.Completed

	s.Kill()
	if _, err := s.Submit(quick); !errors.As(err, &UnavailableError{}) && err == nil {
		t.Fatalf("submit after kill: %v", err)
	}

	s2, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer closeServer(s2)
	h2 := newHarness(t, s2)
	for id, sp := range specs {
		h2.track(id, sp)
	}
	h2.vals = h.vals // resume the same value model across incarnations

	// Status immediately after Recover: the job list is correct and the
	// resumed job's bumped epoch is visible.
	jl := s2.Jobs()
	if len(jl) != 2 {
		t.Fatalf("recovered job list has %d entries: %+v", len(jl), jl)
	}
	qst, ok := s2.JobByID(qid)
	if !ok || qst.State != StateFinished || qst.Completed != qst.Nodes || qst.Nodes == 0 {
		t.Fatalf("finished job after recover: %+v", qst)
	}
	sst, ok := s2.JobByID(sid)
	if !ok || sst.State != StateActive {
		t.Fatalf("mid-flight job after recover: %+v", sst)
	}
	if sst.Epoch != 2 {
		t.Fatalf("recovered epoch %d, want 2 (bumped)", sst.Epoch)
	}
	if sst.Completed < preDone {
		t.Fatalf("recovered completions %d < journaled %d", sst.Completed, preDone)
	}
	// A report under the dead incarnation's epoch is fenced.
	if _, err := s2.Report(sid, []dag.NodeID{0}, nil, 1, 0); err == nil {
		t.Fatal("stale-epoch report accepted after recovery")
	}
	// Tenant accounting survived.
	for _, ts := range s2.ServiceStatus().Tenants {
		if ts.Tenant == "a" && ts.CompletedJobs != 1 {
			t.Fatalf("tenant a completed-jobs %d after recover, want 1", ts.CompletedJobs)
		}
	}

	// Submit one more job post-recovery and drain everything.
	extra := Spec{Tenant: "a", Family: "fftconv", Size: 3}
	eid := h2.submit(extra)
	specs[eid] = extra
	h2.drain(4)
	h2.checkValues(specs)
}

// TestRecoverQueuedJob re-admits a job that was durably submitted but
// never activated (its activate event is missing from the manifest).
func TestRecoverQueuedJob(t *testing.T) {
	dir := t.TempDir()
	man, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Tenant: "a", Family: "prefix", Size: 8}
	if err := man.append(manifestEvent{Event: "submit", At: 1, Job: "j1",
		Tenant: sp.Tenant, Family: sp.Family, Size: sp.Size}); err != nil {
		t.Fatal(err)
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(s)
	h := newHarness(t, s)
	h.track("j1", sp)
	waitState(t, s, "j1", StateActive)
	h.drain(4)
	h.checkValues(map[string]Spec{"j1": sp})
	// The re-admitted job kept its ID; the next submission gets a fresh one.
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Job != "j2" {
		t.Fatalf("next job ID %q, want j2", st.Job)
	}
}

// TestCloseDrains pins graceful-drain semantics: after Close the
// service refuses submissions and grants with the typed reason, still
// answers status, and reports draining.
func TestCloseDrains(t *testing.T) {
	s := New(Config{})
	if err := closeServer(s); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !s.ServiceStatus().Draining {
		t.Fatal("status during drain does not report draining")
	}
	var unavail UnavailableError
	if _, err := s.Submit(Spec{Tenant: "a", Family: "prefix", Size: 8}); !errors.As(err, &unavail) || unavail.Reason != "draining" {
		t.Fatalf("submit while draining: %v", err)
	}
	if _, err := s.Allocate(1); !errors.As(err, &unavail) || unavail.Reason != "draining" {
		t.Fatalf("allocate while draining: %v", err)
	}
	if err := closeServer(s); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestManifestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	man, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := man.append(manifestEvent{Event: "submit", At: int64(i), Job: fmt.Sprintf("j%d", i), Tenant: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"submit","job":"j4","ten`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, err := readManifest(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want the 3-event valid prefix", len(events))
	}
	// Interior corruption (garbage followed by a valid line) is an error.
	if err := os.WriteFile(path, []byte("not json\n{\"event\":\"submit\",\"job\":\"j1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(dir); err == nil {
		t.Fatal("interior corruption tolerated")
	}
}
