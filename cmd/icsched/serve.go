package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/shard"
	"icsched/internal/wal"
)

// Connection limits of the serve listener: a client that trickles its
// request header (slowloris) or body is cut off instead of holding a
// connection forever, and idle keep-alive connections are reaped.
const (
	serveReadHeaderTimeout = 2 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// cmdServe runs the Internet-computing task server for a family on the
// given address, allocating in IC-optimal order.  Clients follow the
// protocol in internal/icserver (POST /task, POST /done, POST /failed,
// GET /status, GET /healthz, GET /metrics).  -shards K instead cuts the
// dag across K shard servers behind one coordinator.  -pprof
// additionally mounts net/http/pprof under /debug/pprof/ for live
// profiling.  On SIGINT/SIGTERM the server drains: /task refuses new
// work while in-flight leases get up to one lease period to report,
// then the listener shuts down.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	withPprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	walDir := fs.String("wal", "", "crash-safe mode: journal every state change to this directory and resume from it on restart")
	relaxedShards := fs.Int("relaxed", 0, "grant through the lock-free k-relaxed core with this shard count (0 = exact locked path; 1 is bit-identical to it)")
	numShards := fs.Int("shards", 0, "cut the dag into this many shard servers behind one coordinator (0/1 = single server); workers address shard i under /shard/<i>/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	f, size, err := parseFamily(args)
	if err != nil {
		return err
	}
	addr := ":8080"
	if len(args) >= 3 {
		addr = args[2]
	}
	g, nonsinks, err := f.build(size)
	if err != nil {
		return err
	}
	lease := time.Minute
	order := sched.Complete(g, nonsinks)
	var t served
	if *numShards > 1 {
		t, err = newSharded(g, order, *numShards, *walDir, *relaxedShards, lease)
		if err != nil {
			return err
		}
		fmt.Printf("serving %s (size %d, %d tasks) sharded %d ways on %s\n", f.name, size, g.NumNodes(), *numShards, addr)
		fmt.Println("protocol per shard: POST /shard/<i>/tasks {\"k\": n} | POST /shard/<i>/report | GET /shard/<i>/status; coordinator: GET /status | GET /healthz | GET /metrics")
	} else {
		t, err = newSingle(g, order, *walDir, *relaxedShards, lease)
		if err != nil {
			return err
		}
		fmt.Printf("serving %s (size %d, %d tasks) on %s\n", f.name, size, g.NumNodes(), addr)
		fmt.Println("protocol: POST /task | POST /done {\"task\": id} | POST /failed {\"task\": id} | GET /status | GET /healthz | GET /metrics")
	}

	handler := t.handler
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("pprof: mounted at /debug/pprof/")
	}
	httpSrv := newHTTPServer(addr, handler)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("\n%s: draining in-flight leases (up to %v)...\n", sig, lease)
		drainCtx, cancel := context.WithTimeout(context.Background(), lease)
		defer cancel()
		if err := t.shutdown(drainCtx); err != nil {
			fmt.Println(err)
		}
		closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := httpSrv.Shutdown(closeCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Println(t.summary())
		return nil
	}
}

// newHTTPServer wraps a handler in the serve listener's limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout: serveReadTimeout, IdleTimeout: serveIdleTimeout}
}

// served is what cmdServe runs behind its listener: one task server or
// a shard coordinator.
type served struct {
	handler  http.Handler
	shutdown func(context.Context) error
	summary  func() string
}

// newSingle builds one task server (journaled and resumed with -wal).
func newSingle(g *dag.Dag, order []dag.NodeID, walDir string, relaxed int, lease time.Duration) (served, error) {
	opts := []icserver.Option{icserver.WithLease(lease)}
	if relaxed > 0 {
		opts = append(opts, icserver.WithRelaxed(relaxed))
	}
	var srv *icserver.Server
	if walDir != "" {
		var err error
		srv, err = icserver.Recover(walDir, g, heur.Static("IC-OPTIMAL", order), wal.Options{}, opts...)
		if err != nil {
			return served{}, err
		}
		st := srv.Status()
		fmt.Printf("journal: %s (epoch %d, resuming at %d/%d tasks)\n", walDir, st.Epoch, st.Completed, st.Total)
	} else {
		srv = icserver.New(g, heur.Static("IC-OPTIMAL", order), opts...)
	}
	if relaxed > 0 {
		fmt.Printf("grant path: lock-free relaxed core, %d shards\n", relaxed)
	}
	return served{srv.Handler(), srv.Shutdown, func() string {
		st := srv.Status()
		return fmt.Sprintf("stopped: %d/%d tasks completed, %d reissues, %d quarantined",
			st.Completed, st.Total, st.Reissues, st.Quarantined)
	}}, nil
}

// newSharded cuts the dag into k schedule-guided components served by k
// embedded task servers behind one coordinator, each shard mounted
// under /shard/<i>/ with cross-shard arcs forwarded (and, with -wal,
// journaled) by the bus.  The coordinator-level GET /status, /healthz
// and /metrics aggregate all shards.
func newSharded(g *dag.Dag, order []dag.NodeID, k int, walDir string, relaxed int, lease time.Duration) (served, error) {
	// Contiguous chunks of a topological order keep the cut forward-only
	// and the eligibility frontier spread across shards.
	p, err := shard.ByOrder(g, k, g.TopoOrder())
	if err != nil {
		return served{}, err
	}
	coord, err := shard.New(g, order, p, shard.Config{Dir: walDir, Lease: lease, Relaxed: relaxed})
	if err != nil {
		return served{}, err
	}
	if walDir != "" {
		st := coord.Status()
		fmt.Printf("journal: %s (bus + %d shard journals, resuming at %d/%d tasks)\n", walDir, p.K, st.Completed, st.Total)
	}
	for _, s := range p.PerShard() {
		fmt.Printf("  shard %d: %d tasks, %d arcs in, %d arcs out (/shard/%d/)\n",
			s.Shard, s.Nodes, s.CrossIn, s.CrossOut, s.Shard)
	}
	return served{coord.Handler(), coord.Shutdown, func() string {
		st := coord.Status()
		return fmt.Sprintf("stopped: %d/%d tasks completed, %d reissues, %d quarantined, %d cross-shard credits",
			st.Completed, st.Total, st.Reissues, st.Quarantined, st.ArcsForwarded)
	}}, nil
}
