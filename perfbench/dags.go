package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"icsched/internal/butterfly"
	"icsched/internal/dag"
	"icsched/internal/exec"
	"icsched/internal/mesh"
	"icsched/internal/prefix"
	"icsched/internal/sched"
)

// computation is one dag the benchmark executes, with its IC-optimal
// order and the serial reference values every run is checked against.
type computation struct {
	name    string
	g       *dag.Dag
	order   []dag.NodeID // IC-optimal complete execution order
	optArea int64        // area under the IC-optimal eligibility profile
}

// gridComputation is the rows×rows wavefront with the diagonal
// (IC-optimal) order.
func gridComputation(side int) *computation {
	g := mesh.Grid(side, side)
	return newComputation(fmt.Sprintf("wavefront-%d", side), g,
		sched.Complete(g, mesh.GridDiagonalNonsinks(side, side)))
}

// butterflyComputation is the d-dimensional butterfly B_d with its
// IC-optimal block-pair order.
func butterflyComputation(d int) *computation {
	g := butterfly.Network(d)
	return newComputation(fmt.Sprintf("butterfly-%d", d), g,
		sched.Complete(g, butterfly.Nonsinks(d)))
}

// prefixComputation is the n-input parallel-prefix network.
func prefixComputation(n int) *computation {
	g := prefix.Network(n)
	return newComputation(fmt.Sprintf("prefix-%d", n), g,
		sched.Complete(g, prefix.Nonsinks(n)))
}

func newComputation(name string, g *dag.Dag, order []dag.NodeID) *computation {
	c := &computation{name: name, g: g, order: order}
	area, err := profileArea(sched.NewState(g), order)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %s: IC-optimal order invalid: %v", name, err))
	}
	c.optArea = area
	return c
}

// profileArea replays order through st (reset to its dag) and sums the
// eligibility profile: |ELIGIBLE| after each executed node.  It fails
// when order is not a complete topological order of the dag.
func profileArea(st *sched.State, order []dag.NodeID) (int64, error) {
	g := st.Dag()
	st.Reset(g)
	if len(order) != g.NumNodes() {
		return 0, fmt.Errorf("order has %d of %d nodes", len(order), g.NumNodes())
	}
	var area int64
	var buf []dag.NodeID
	for _, v := range order {
		var err error
		if buf, err = st.ExecuteInto(v, buf[:0]); err != nil {
			return 0, err
		}
		area += int64(st.NumEligible())
	}
	return area, nil
}

// fnvValue hashes v's ID and the salt together with its parents' values
// (FNV-1a): every execution respecting the dependencies computes the
// same value, and a different salt (the run's seed) changes every value.
func fnvValue(salt uint64, v dag.NodeID, parents []dag.NodeID, val func(dag.NodeID) uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(salt)
	mix(uint64(v))
	for _, p := range parents {
		mix(val(p))
	}
	return h
}

// reference computes the ground-truth values with the serial in-process
// executor (exec.Run, one worker).
func reference(c *computation, salt uint64) ([]uint64, error) {
	rank, err := exec.RankFromOrder(c.g, c.order)
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, c.g.NumNodes())
	get := func(p dag.NodeID) uint64 { return vals[p] }
	if _, err := exec.Run(c.g, rank, 1, func(v dag.NodeID) error {
		vals[v] = fnvValue(salt, v, c.g.Parents(v), get)
		return nil
	}); err != nil {
		return nil, err
	}
	return vals, nil
}

// execution records one run of a computation by the system under test:
// the value each node computed and the order in which the workers
// started nodes.  A node starts only after the server granted it, which
// happens only after every parent was reported done, so the start order
// is a topological order — the order the harness observed.
type execution struct {
	c       *computation
	salt    uint64
	vals    []atomic.Uint64
	ackAt   []atomic.Int64 // unix ns the report acking each node returned
	order   []dag.NodeID
	n       atomic.Int64
	extra   atomic.Int64 // executions beyond one per node
	corrupt bool         // flip node 0's value (the gate's self-test)
}

func newExecution(c *computation, salt uint64, corrupt bool) *execution {
	n := c.g.NumNodes()
	return &execution{c: c, salt: salt, corrupt: corrupt,
		vals: make([]atomic.Uint64, n), ackAt: make([]atomic.Int64, n), order: make([]dag.NodeID, n)}
}

// latencies returns each acked node's time from becoming eligible (the
// last of its parents' acks returned, or start for a source) until its
// own ack returned, in ms.
func (e *execution) latencies(start time.Time) []float64 {
	g := e.c.g
	out := make([]float64, 0, g.NumNodes())
	for v := range e.ackAt {
		at := e.ackAt[v].Load()
		if at == 0 {
			continue
		}
		elig := start.UnixNano()
		for _, p := range g.Parents(dag.NodeID(v)) {
			elig = max(elig, e.ackAt[p].Load())
		}
		out = append(out, float64(at-elig)/1e6)
	}
	return out
}

// run computes node v.  Safe for concurrent use by the workers.
func (e *execution) run(v dag.NodeID) {
	x := fnvValue(e.salt, v, e.c.g.Parents(v), func(p dag.NodeID) uint64 { return e.vals[p].Load() })
	if e.corrupt && v == 0 {
		x ^= 1
	}
	e.vals[v].Store(x)
	if i := e.n.Add(1) - 1; i < int64(len(e.order)) {
		e.order[i] = v
	} else {
		e.extra.Add(1)
	}
}

// verdict checks an execution after its workers have stopped.
type verdict struct {
	checked    int     // node values compared
	mismatches int     // values that differ from the reference, or missing nodes
	area       int64   // area under the observed eligibility profile
	replay     float64 // seconds spent replaying the observed order
}

// check bit-compares every node's value against ref and replays the
// observed order through st to get its eligibility-profile area.
func (e *execution) check(ref []uint64, st *sched.State) verdict {
	vd := verdict{checked: len(ref)}
	for v := range ref {
		if e.vals[v].Load() != ref[v] {
			vd.mismatches++
		}
	}
	vd.mismatches += int(e.extra.Load())
	start := time.Now()
	area, err := profileArea(st, e.order[:min(int(e.n.Load()), len(e.order))])
	vd.replay = time.Since(start).Seconds()
	if err != nil {
		vd.mismatches++ // an incomplete or illegal observed order
	}
	vd.area = area
	return vd
}
