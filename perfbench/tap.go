package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"icsched/internal/dag"
	"icsched/internal/wal"
)

// spanHeader carries a request's span id from the client wrapper to the
// handler wrapper, which joins the two spans.
const spanHeader = "X-Perfbench-Span"

// worker is one worker's measurements.  Only the worker's own goroutine
// writes it while a pass runs (net/http runs RoundTrip on the caller's
// goroutine); the harness reads it after the pass.
type worker struct {
	id     int
	calls  []float64 // call latencies, µs
	callAt []int64   // call end times, unix ns
	errors int       // transport errors
	refuse int       // 5xx, 409 and 429 responses

	// Closed loops: the execution the worker computes for, and the nodes
	// it computed since its last call, which that call's report acks.
	ex      *execution
	pending []dag.NodeID

	// In-process workers count their own engine outcomes.
	idle    int // calls that found nothing to do
	batches int // calls that granted work

	// Traced timeline.  Every span starts by attributing the gap since
	// the previous one: to idle when the previous call returned an empty
	// grant, to the client engine's own code otherwise.
	traced    bool
	nextSeq   uint64
	spans     []clientSpan
	lastEnd   time.Time
	lastEmpty bool
	callNs    int64 // HTTP round trips or in-process calls
	computeNs int64
	idleNs    int64
	selfNs    int64
	reqBytes  int64
	respBytes int64
}

type clientSpan struct {
	id  uint64
	dur int64 // ns
}

// begin starts the worker's timeline.
func (w *worker) begin(at time.Time) {
	w.lastEnd, w.lastEmpty = at, false
}

// stop closes the worker's timeline.
func (w *worker) stop(at time.Time) {
	if w.traced {
		w.gap(at)
		w.lastEnd, w.lastEmpty = at, false
	}
}

// wait attributes the time from the worker's stop until the pass ended
// (the other workers still running) to idle.
func (w *worker) wait(end time.Time) {
	if w.traced {
		w.idleNs += end.Sub(w.lastEnd).Nanoseconds()
		w.lastEnd = end
	}
}

// gap attributes the time since the previous span.  A span that starts
// before the previous one ended leaves no gap, so overlapping spans
// count twice and push the timeline past the wall (see reconcile).
func (w *worker) gap(now time.Time) {
	d := max(now.Sub(w.lastEnd).Nanoseconds(), 0)
	if w.lastEmpty {
		w.idleNs += d
	} else {
		w.selfNs += d
	}
}

// compute runs f as a compute span.
func (w *worker) compute(f func()) {
	if !w.traced {
		f()
		return
	}
	start := time.Now()
	w.gap(start)
	f()
	end := time.Now()
	w.computeNs += end.Sub(start).Nanoseconds()
	w.lastEnd, w.lastEmpty = end, false
}

// execute computes node v of the worker's execution as a compute span;
// the worker's next call reports it.
func (w *worker) execute(v dag.NodeID) {
	w.compute(func() { w.ex.run(v) })
	w.pending = append(w.pending, v)
}

// call records one worker call from start to end; empty marks a call
// that found nothing to do.
func (w *worker) call(start, end time.Time, empty bool) {
	for _, v := range w.pending {
		w.ex.ackAt[v].Store(end.UnixNano())
	}
	w.pending = w.pending[:0]
	d := end.Sub(start).Nanoseconds()
	w.calls = append(w.calls, float64(d)/1e3)
	w.callAt = append(w.callAt, end.UnixNano())
	if w.traced {
		w.gap(start)
		w.callNs += d
		w.lastEnd, w.lastEmpty = end, empty
	}
}

// timelineNs is the traced time the worker's spans and gaps cover.
func (w *worker) timelineNs() int64 { return w.callNs + w.computeNs + w.idleNs + w.selfNs }

// tap is a worker's http.RoundTripper: it times every round trip from
// send until the response body is read, counts refusals, and on traced
// passes tags the request with a span id and counts wire bytes.
type tap struct {
	base http.RoundTripper
	w    *worker
	// onResponse, when set, sees every successful round trip's request
	// and response body (the jobs workload detects job finishes here).
	onResponse func(req *http.Request, body []byte, end time.Time)
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	w := t.w
	var id uint64
	if w.traced {
		id = uint64(w.id)<<48 | w.nextSeq
		w.nextSeq++
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		if req.Context().Err() == nil { // not the harness stopping the worker
			w.errors++
		}
		w.call(start, end, false)
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if code := resp.StatusCode; code >= 500 || code == http.StatusConflict || code == http.StatusTooManyRequests {
		w.refuse++
	}
	empty := resp.StatusCode == http.StatusOK && strings.HasSuffix(req.URL.Path, "/tasks") &&
		(bytes.Contains(body, []byte(`"tasks":[]`)) || bytes.Contains(body, []byte(`"tasks":null`)))
	w.call(start, end, empty)
	if w.traced {
		w.spans = append(w.spans, clientSpan{id: id, dur: end.Sub(start).Nanoseconds()})
		w.reqBytes += max(req.ContentLength, 0)
		w.respBytes += int64(len(body))
	}
	if t.onResponse != nil {
		t.onResponse(req, body, end)
	}
	return resp, nil
}

// client is an http.Client whose round trips w records.
func (w *worker) client(base http.RoundTripper, onResponse func(*http.Request, []byte, time.Time)) *http.Client {
	return &http.Client{Transport: &tap{base: base, w: w, onResponse: onResponse}}
}

// transport is the pooled transport a pass's workers share: at most two
// connections to the server, as the load stays within two cores.
func transport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
}

// handlerTap records server-side handler spans by span id.
type handlerTap struct {
	mu   sync.Mutex
	durs map[uint64]int64 // span id → handler ns
}

func newHandlerTap() *handlerTap { return &handlerTap{durs: map[uint64]int64{}} }

// wrap times h around every tagged request.
func (t *handlerTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, r)
		d := time.Since(start).Nanoseconds()
		if id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); err == nil {
			t.mu.Lock()
			t.durs[id] = d
			t.mu.Unlock()
		}
	})
}

// join matches w's client spans with their handler spans.  It returns
// the joined handler time, the handler durations (µs), how many client
// spans found no handler span, and how many handler spans did not nest
// inside their client span.
func (t *handlerTap) join(w *worker) (handlerNs int64, durs []float64, unjoined, unnested int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range w.spans {
		h, ok := t.durs[s.id]
		if !ok {
			unjoined++
			continue
		}
		if h > s.dur {
			unnested++
		}
		handlerNs += h
		durs = append(durs, float64(h)/1e3)
	}
	return
}

// walTap observes journal appends and fsyncs through the wal.Options
// hooks; the journals of several servers may share one.
type walTap struct {
	mu      sync.Mutex
	fsyncs  []float64 // µs
	fsyncNs int64
	bytes   int64
}

// options returns o with the observers installed (nil tap: o as is).
func (t *walTap) options(o wal.Options) wal.Options {
	if t == nil {
		return o
	}
	o.FsyncObserver = func(d time.Duration) {
		t.mu.Lock()
		t.fsyncs = append(t.fsyncs, float64(d.Nanoseconds())/1e3)
		t.fsyncNs += d.Nanoseconds()
		t.mu.Unlock()
	}
	o.AppendObserver = func(n int) {
		t.mu.Lock()
		t.bytes += int64(n)
		t.mu.Unlock()
	}
	return o
}

// heapSampler tracks the peak live heap (bytes marked live by the
// latest garbage collection) while it runs; unlike the heap's size, it
// does not depend on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.  A final forced
// collection marks what is still live at the end, so state that only
// grows (the job service keeps every finished job) is counted in full
// whenever the last scheduled collection happened.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return max(h.peak, sample[0].Value.Uint64())
}

// memCounters snapshots cumulative allocation and GC pause totals.
func memCounters() (allocBytes, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.PauseTotalNs
}
