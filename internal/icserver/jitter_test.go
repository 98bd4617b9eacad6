package icserver_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"icsched/internal/icserver"
	"icsched/internal/jobs"
	"icsched/internal/shard"
)

// TestJitterSeedReplay is the determinism half of the jitter fix: two
// engines with the same Seed must produce identical backoff sequences.
// (The old code seeded lazily from the global rand, so no two runs ever
// backed off the same way and chaos seeds were not replayable.)
func TestJitterSeedReplay(t *testing.T) {
	a := &icserver.Engine{Seed: 99}
	b := &icserver.Engine{Seed: 99}
	for i := 0; i < 200; i++ {
		d := time.Duration(1+i%16) * time.Millisecond
		ja, jb := a.Jitter(d), b.Jitter(d)
		if ja != jb {
			t.Fatalf("draw %d: seeds equal but jitter %v != %v", i, ja, jb)
		}
		if half := d / 2; half > 0 && (ja < half || ja >= d) {
			t.Fatalf("draw %d: jitter %v outside [%v, %v)", i, ja, half, d)
		}
	}
}

// TestJitterDefaultSeedsDistinct checks, for every worker type, that
// unconfigured workers do not all collapse onto one backoff sequence:
// the process-wide default hands each its own seed.  Each worker idles
// against a server with nothing eligible while the engine's sleep is
// swapped for a recorder.
func TestJitterDefaultSeedsDistinct(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"tasks":[]}`))
	}))
	defer ts.Close()
	errStop := errors.New("enough draws")
	var draws []time.Duration
	defer icserver.SetSleep(func(_ context.Context, d time.Duration) error {
		if draws = append(draws, d); len(draws) == 16 {
			return errStop
		}
		return nil
	})()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"icserver.Client", func() error {
			_, err := (&icserver.Client{BaseURL: ts.URL, Batch: 4}).Run(ctx)
			return err
		}},
		{"jobs.Client", func() error {
			_, err := (&jobs.Client{BaseURL: ts.URL}).Run(ctx)
			return err
		}},
		{"shard.Worker", func() error {
			_, err := (&shard.Worker{BaseURL: ts.URL, Shards: 1}).Run(ctx)
			return err
		}},
	} {
		var seqs [2][]time.Duration
		for i := range seqs {
			draws = nil
			if err := tc.run(); !errors.Is(err, errStop) {
				t.Fatalf("%s: run ended with %v", tc.name, err)
			}
			seqs[i] = draws
		}
		if reflect.DeepEqual(seqs[0], seqs[1]) {
			t.Errorf("%s: two default-seeded workers produced identical jitter sequences %v", tc.name, seqs[0])
		}
	}
}

// TestJitterTinyDuration covers the d/2 == 0 degenerate range.
func TestJitterTinyDuration(t *testing.T) {
	e := &icserver.Engine{Seed: 1}
	if got := e.Jitter(time.Nanosecond); got != time.Nanosecond {
		t.Fatalf("jitter(1ns) = %v", got)
	}
}

// TestJitterConcurrentInit has many unseeded engines take their first
// draw at once; run under -race this pins the process-wide default-seed
// counter they share.
func TestJitterConcurrentInit(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &icserver.Engine{}
			for j := 0; j < 100; j++ {
				d := e.Jitter(10 * time.Millisecond)
				if d < 5*time.Millisecond || d >= 10*time.Millisecond {
					t.Errorf("jitter out of range: %v", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
