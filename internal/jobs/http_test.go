package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/difftest"
)

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPFleetEndToEnd streams a mixed multi-tenant job set through
// the real HTTP surface with a shared fleet of batched workers, and
// checks every job's values against the serial reference.
func TestHTTPFleetEndToEnd(t *testing.T) {
	s := New(Config{Lease: time.Minute})
	defer closeServer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	graphs := map[string]*dag.Dag{}
	vals := map[string][]uint64{}
	specs := map[string]Spec{}
	submit := func(sp Spec) string {
		code, body := postJSON(t, ts.URL+"/jobs", sp)
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs -> %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		g, _, err := buildJob(sp)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		graphs[st.Job], vals[st.Job], specs[st.Job] = g, make([]uint64, g.NumNodes()), sp
		mu.Unlock()
		return st.Job
	}
	for _, sp := range []Spec{
		{Tenant: "a", Family: "wavefront", Size: 6},
		{Tenant: "b", Family: "prefix", Size: 32},
		{Tenant: "c", Family: "fftconv", Size: 3},
		{Tenant: "a", Dag: rawDag(6, [][2]int{{0, 3}, {1, 3}, {2, 4}, {3, 5}, {4, 5}})},
	} {
		submit(sp)
	}

	compute := func(job string, task dag.NodeID, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		g, ok := graphs[job]
		if !ok {
			return fmt.Errorf("grant for unknown job %s", job)
		}
		vals[job][task] = difftest.NodeValue(g, task, vals[job])
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{BaseURL: ts.URL, Compute: compute, Batch: 8,
				ID: fmt.Sprintf("w%d", w), Seed: int64(w + 1),
				IdleWait: 100 * time.Microsecond, IdleWaitMax: 5 * time.Millisecond}
			_, errs[w] = cl.Run(ctx)
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var list []JobStatus
		if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK {
			t.Fatalf("GET /jobs -> %d", code)
		}
		finished := 0
		for _, st := range list {
			if st.State == StateFinished {
				finished++
			}
			if st.State == StateFailed {
				t.Fatalf("job failed: %+v", st)
			}
		}
		if finished == len(specs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet stalled: %+v", list)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for w, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	for id, sp := range specs {
		_, want := refVals(t, sp)
		for v, got := range vals[id] {
			if got != want[v] {
				t.Fatalf("job %s node %d = %#x, want %#x", id, v, got, want[v])
			}
		}
	}

	// GET /status: service snapshot plus the job list with epochs.
	var st statusResponse
	if code := getJSON(t, ts.URL+"/status", &st); code != http.StatusOK {
		t.Fatalf("GET /status -> %d", code)
	}
	if st.Finished != len(specs) || len(st.Jobs) != len(specs) || len(st.Tenants) != 3 {
		t.Fatalf("status %+v", st)
	}
	for _, js := range st.Jobs {
		if js.Epoch == 0 {
			t.Fatalf("job %s has no visible epoch in /status", js.Job)
		}
	}
	// GET /jobs/{id} and its 404.
	for id := range specs {
		var one JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &one); code != http.StatusOK || one.Job != id {
			t.Fatalf("GET /jobs/%s -> %d %+v", id, code, one)
		}
		break
	}
	if code := getJSON(t, ts.URL+"/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("GET /jobs/j999 -> %d, want 404", code)
	}
}

// TestHTTPTypedErrors pins the wire mapping of the typed service
// errors: 429 backpressure, 409 stale epoch (with the current token in
// the body), 400 duplicate-in-batch, 404 unknown job, 503 with a
// reason after drain.
func TestHTTPTypedErrors(t *testing.T) {
	s := New(Config{MaxQueued: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/jobs", Spec{Tenant: "a", Dag: rawDag(3, nil)})
	if code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Over the tenant cap: typed 429.
	code, body = postJSON(t, ts.URL+"/jobs", Spec{Tenant: "a", Dag: rawDag(3, nil)})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit -> %d: %s", code, body)
	}
	var busy backpressureResponse
	if err := json.Unmarshal(body, &busy); err != nil || busy.Error != "backpressure" || busy.Tenant != "a" {
		t.Fatalf("429 body %s", body)
	}

	// Grant one task, then report it under a wrong epoch: typed 409
	// carrying the current epoch.
	waitState(t, s, st.Job, StateActive)
	code, body = postJSON(t, ts.URL+"/tasks", allocRequest{K: 1})
	if code != http.StatusOK {
		t.Fatalf("/tasks -> %d: %s", code, body)
	}
	var grant GrantSet
	if err := json.Unmarshal(body, &grant); err != nil || len(grant.Tasks) != 1 {
		t.Fatalf("grant %s", body)
	}
	code, body = postJSON(t, ts.URL+"/report", reportRequest{
		Job: grant.Job, Epoch: grant.Epoch + 5, Done: []dag.NodeID{grant.Tasks[0].Task}})
	if code != http.StatusConflict {
		t.Fatalf("stale report -> %d: %s", code, body)
	}
	var rej staleEpochResponse
	if err := json.Unmarshal(body, &rej); err != nil || rej.Error != "stale epoch" || rej.Epoch != grant.Epoch {
		t.Fatalf("409 body %s", body)
	}

	// Duplicate task in one batch: 400.
	v := grant.Tasks[0].Task
	code, _ = postJSON(t, ts.URL+"/report", reportRequest{
		Job: grant.Job, Epoch: grant.Epoch, Done: []dag.NodeID{v, v}})
	if code != http.StatusBadRequest {
		t.Fatalf("duplicate-in-batch -> %d, want 400", code)
	}

	// Unknown job: 404.
	code, _ = postJSON(t, ts.URL+"/report", reportRequest{Job: "j999", Done: []dag.NodeID{0}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown-job report -> %d, want 404", code)
	}

	// Missing job field: 400.
	code, _ = postJSON(t, ts.URL+"/report", reportRequest{Done: []dag.NodeID{0}})
	if code != http.StatusBadRequest {
		t.Fatalf("jobless report -> %d, want 400", code)
	}

	// A correct report for the same task succeeds (and clears its lease,
	// so the graceful drain below has nothing in flight).
	code, body = postJSON(t, ts.URL+"/report", reportRequest{
		Job: grant.Job, Epoch: grant.Epoch, Done: []dag.NodeID{v}})
	if code != http.StatusOK {
		t.Fatalf("valid report -> %d: %s", code, body)
	}

	// After drain: 503 with the typed reason, while /status still answers
	// and reports draining.
	if err := closeServer(s); err != nil {
		t.Fatalf("close: %v", err)
	}
	code, body = postJSON(t, ts.URL+"/tasks", allocRequest{K: 1})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /tasks -> %d", code)
	}
	var unavail unavailableResponse
	if err := json.Unmarshal(body, &unavail); err != nil || unavail.Error != "unavailable" || unavail.Reason != "draining" {
		t.Fatalf("503 body %s", body)
	}
	var sum statusResponse
	if code := getJSON(t, ts.URL+"/status", &sum); code != http.StatusOK || !sum.Draining {
		t.Fatalf("draining /status -> %d %+v", code, sum)
	}
}
