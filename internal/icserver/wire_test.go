package icserver_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/jobs"
	"icsched/internal/shard"
)

// wireStep is one scripted exchange: the request the client must send
// next and the canned reply.
type wireStep struct {
	req  string // "METHOD path [client-id] body"
	code int
	resp string
}

// scriptedServer replays a fixed exchange and checks every request it
// sees against it, so a test can pin a client's exact request bytes.  A request
// past the end of the script cancels the run (the jobs worker never
// finishes on its own) and is left unanswered.
type scriptedServer struct {
	t      *testing.T
	steps  []wireStep
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (s *scriptedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	line := fmt.Sprintf("%s %s [%s] %s", r.Method, r.URL.Path, r.Header.Get("X-IC-Client"), body)
	s.mu.Lock()
	s.seen++
	if len(s.steps) == 0 {
		s.mu.Unlock()
		s.cancel()
		<-r.Context().Done()
		return
	}
	st, n := s.steps[0], s.seen
	s.steps = s.steps[1:]
	s.mu.Unlock()
	if line != st.req {
		s.t.Errorf("request %d:\n got %s\nwant %s", n, line, st.req)
	}
	if st.code == http.StatusNoContent || st.code == http.StatusGone {
		w.WriteHeader(st.code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if st.code != 0 {
		w.WriteHeader(st.code)
	}
	w.Write([]byte(st.resp))
}

// TestClientWireBytes pins the request bodies of all three worker loops
// (batched and legacy icserver.Client, jobs.Client, shard.Worker),
// including retries after a 5xx and re-sends after a stale-epoch resync,
// against a scripted server.
func TestClientWireBytes(t *testing.T) {
	failOn := func(bad dag.NodeID) func(dag.NodeID) error {
		return func(v dag.NodeID) error {
			if v == bad {
				return errors.New("compute failed")
			}
			return nil
		}
	}
	cases := []struct {
		name  string
		steps []wireStep
		run   func(ctx context.Context, url string) (any, error)
		stats any
	}{
		{
			name: "batched",
			steps: []wireStep{
				{`POST /tasks [w1] {"k":1}`, 503, `{"error":"unavailable"}`},
				{`POST /tasks [w1] {"k":1}`, 200, `{"tasks":[{"task":0,"name":"a"}],"epoch":3}`},
				{`POST /report [w1] {"done":[0],"failed":null,"k":2,"epoch":3}`, 200,
					`{"newlyEligible":2,"tasks":[{"task":1,"name":"b"},{"task":2,"name":"c"}],"epoch":3}`},
				{`POST /report [w1] {"done":[1],"failed":[2],"k":4,"epoch":3}`, 409, `{"error":"stale epoch","epoch":4}`},
				{`GET /status [] `, 200, `{"epoch":5}`},
				{`POST /report [w1] {"done":[1],"failed":[2],"k":4,"epoch":5}`, 200, `{}`},
				{`POST /tasks [w1] {"k":4}`, 200, `{"tasks":[],"epoch":5}`},
				{`POST /tasks [w1] {"k":1}`, 410, ``},
			},
			run: func(ctx context.Context, url string) (any, error) {
				fail := failOn(2)
				c := &icserver.Client{BaseURL: url, ID: "w1", Batch: 4, Seed: 1,
					IdleWait: time.Millisecond, RetryWait: time.Millisecond,
					Compute: func(v dag.NodeID, _ string) error { return fail(v) }}
				return c.Run(ctx)
			},
			stats: icserver.Stats{Completed: 2, IdlePolls: 1, Retries: 1, Failed: 1, Batches: 2, Resyncs: 1},
		},
		{
			name: "legacy",
			steps: []wireStep{
				{`POST /task [w2] `, 200, `{"task":0,"name":"a","epoch":2}`},
				{`POST /done [w2] {"task":0,"epoch":2}`, 200, `{"newlyEligible":1}`},
				{`POST /task [w2] `, 200, `{"task":1,"name":"b","epoch":2}`},
				{`POST /failed [w2] {"task":1,"epoch":2}`, 409, `{"error":"stale epoch","epoch":3}`},
				{`GET /status [] `, 200, `{"epoch":3}`},
				{`POST /failed [w2] {"task":1,"epoch":3}`, 200, `{"requeued":true}`},
				{`POST /task [w2] `, 204, ``},
				{`POST /task [w2] `, 410, ``},
			},
			run: func(ctx context.Context, url string) (any, error) {
				fail := failOn(1)
				c := &icserver.Client{BaseURL: url, ID: "w2", Seed: 1, IdleWait: time.Millisecond,
					Compute: func(v dag.NodeID, _ string) error { return fail(v) }}
				return c.Run(ctx)
			},
			stats: icserver.Stats{Completed: 1, IdlePolls: 1, Failed: 1, Resyncs: 1},
		},
		{
			name: "jobs",
			steps: []wireStep{
				{`POST /tasks [w3] {"k":1}`, 200, `{"job":"j1","epoch":2,"tasks":[{"task":0,"name":"a"}]}`},
				{`POST /report [w3] {"job":"j1","epoch":2,"done":[0],"k":2}`, 409, `{"error":"stale epoch","epoch":3}`},
				{`GET /status [] `, 200, `{"jobs":[{"job":"j0","epoch":9},{"job":"j1","epoch":4}]}`},
				{`POST /report [w3] {"job":"j1","epoch":4,"done":[0],"k":2}`, 200,
					`{"completed":1,"jobFinished":true,"grant":{"job":"j2","epoch":1,"tasks":[{"task":5,"name":"x"},{"task":6,"name":"y"}]}}`},
				{`POST /report [w3] {"job":"j2","epoch":1,"done":[5],"failed":[6],"k":2}`, 200, `{"grant":{"tasks":[]}}`},
				{`POST /tasks [w3] {"k":2}`, 200, `{"tasks":[]}`},
			},
			run: func(ctx context.Context, url string) (any, error) {
				fail := failOn(6)
				c := &jobs.Client{BaseURL: url, ID: "w3", Batch: 2, Seed: 1, IdleWait: time.Millisecond,
					Compute: func(_ string, v dag.NodeID, _ string) error { return fail(v) }}
				st, err := c.Run(ctx)
				if errors.Is(err, context.Canceled) {
					err = nil // the only way a jobs worker stops
				}
				return st, err
			},
			stats: jobs.ClientStats{Completed: 2, Failed: 1, Batches: 2, IdlePolls: 1, Resyncs: 1, JobsFinished: 1},
		},
		{
			name: "shard",
			steps: []wireStep{
				{`POST /shard/1/tasks [w4] {"k":1}`, 200, `{"tasks":[{"task":0,"name":"a"}],"epoch":2}`},
				{`POST /shard/1/report [w4] {"done":[0],"failed":null,"k":2,"epoch":2}`, 409, `{"error":"stale epoch","epoch":3}`},
				{`GET /shard/1/status [] `, 200, `{"epoch":3}`},
				{`POST /shard/1/report [w4] {"done":[0],"failed":null,"k":2,"epoch":3}`, 200, `{"finished":true,"epoch":3}`},
				{`POST /shard/0/tasks [w4] {"k":1}`, 200, `{"tasks":[{"task":4,"name":"b"}],"epoch":1}`},
				{`POST /shard/0/report [w4] {"done":null,"failed":[4],"k":2,"epoch":1}`, 200, `{"finished":true,"epoch":1}`},
			},
			run: func(ctx context.Context, url string) (any, error) {
				fail := failOn(4)
				w := &shard.Worker{BaseURL: url, ID: "w4", Shards: 2, Home: 1, Seed: 1, IdleWait: time.Millisecond,
					Compute: func(_ int, v dag.NodeID, _ string) error { return fail(v) }}
				return w.Run(ctx)
			},
			stats: shard.WorkerStats{Completed: 1, Failed: 1, Batches: 2, Steals: 1, Resyncs: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv := &scriptedServer{t: t, steps: tc.steps, cancel: cancel}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			st, err := tc.run(ctx, ts.URL)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			if len(srv.steps) != 0 {
				t.Errorf("%d scripted requests never sent, next %s", len(srv.steps), srv.steps[0].req)
			}
			if !reflect.DeepEqual(st, tc.stats) {
				t.Errorf("stats %+v, want %+v", st, tc.stats)
			}
		})
	}
}
