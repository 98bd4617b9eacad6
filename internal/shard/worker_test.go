package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestWorkerDefaultSeedsConcurrent starts 8 unseeded Workers at once
// against a shard with nothing eligible, so each draws its first idle
// jitter concurrently with the others.  Under -race this pins the
// default-seed assignment: it must be safe across workers, not just
// within one.
func TestWorkerDefaultSeedsConcurrent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"tasks":[]}`))
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A transport per worker keeps the HTTP client's own locks from
			// ordering the workers' first draws.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			w := &Worker{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}, Shards: 1}
			if st, _ := w.Run(ctx); st.IdlePolls == 0 {
				t.Errorf("worker never went idle: %+v", st)
			}
		}()
	}
	wg.Wait()
}
