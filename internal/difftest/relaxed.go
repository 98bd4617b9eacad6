package difftest

// The relaxed differential lane: the lock-free k-relaxed grant core
// (internal/relaxed) vs the exact ELIGIBLE-prefix scheduler, on the same
// five dag shapes every other lane uses.
//
// Three layers of checking, in strength order:
//
//  1. Core-level serial drive with a model replica (sched.State): every
//     pop is eligible at pop time, is the best-ranked available task of
//     its own shard, and lands within the structural rank bound — among
//     the e eligible tasks, every better-ranked one must sit on another
//     shard, so the grant's rank position is at most e minus the
//     availability of its own shard plus one.
//  2. Quality accounting: the realized order executes the identical task
//     set, replays legally, its profile never exceeds the oracle's MaxE
//     (when the lattice is in reach), and its worst step ratio vs the
//     exact profile respects the analytic floor 1/max(E_exact) — a serial
//     drive always has at least one eligible task per step.
//  3. Server-level: with one shard the relaxed icserver path is
//     bit-identical to the locked path through the batched protocol (the
//     same model replica predicts every grant); with more shards a serial
//     drive still completes the identical set in a legal order with the
//     FNV ground truth intact.

import (
	"fmt"
	"math/rand"

	"icsched/internal/dag"
	"icsched/internal/heur"
	"icsched/internal/icserver"
	"icsched/internal/relaxed"
	"icsched/internal/sched"
)

// relaxedFactors is the shard sweep each instance runs.
var relaxedFactors = [...]int{1, 2, 4}

// checkRelaxed runs the relaxed lane on one instance.  want is the exact
// ELIGIBLE-prefix profile of order; maxE is the oracle's per-step maximum
// (nil when out of reach).
func checkRelaxed(g *dag.Dag, order []dag.NodeID, want []int, maxE []int, ref []uint64, rng *rand.Rand) error {
	for _, k := range relaxedFactors {
		if err := checkRelaxedCore(g, order, want, maxE, k, rng.Int63()); err != nil {
			return fmt.Errorf("core k=%d: %w", k, err)
		}
		if err := checkRelaxedServer(g, order, ref, k); err != nil {
			return fmt.Errorf("server k=%d: %w", k, err)
		}
	}
	// Bit-identity of the relaxed(1) server through the batched wire
	// semantics: the locked-path model replica predicts every grant.
	if err := checkServerBatchedWith(g, order, ref, rng, icserver.WithRelaxed(1)); err != nil {
		return fmt.Errorf("server k=1 batched bit-identity: %w", err)
	}
	return nil
}

// checkRelaxedCore serially drains a bare core against a model replica.
func checkRelaxedCore(g *dag.Dag, order []dag.NodeID, want []int, maxE []int, k int, seed int64) error {
	c := relaxed.New(g, order, k, seed)
	st := sched.NewState(g)
	c.PushAll(st.Eligible())
	avail := make(map[dag.NodeID]bool, g.NumNodes())
	for _, v := range st.Eligible() {
		avail[v] = true
	}
	realized := make([]dag.NodeID, 0, g.NumNodes())
	for !st.Done() {
		v, ok := c.Pop()
		if !ok {
			return fmt.Errorf("core empty with %d tasks left", g.NumNodes()-st.NumExecuted())
		}
		if !avail[v] {
			return fmt.Errorf("popped %d not available", v)
		}
		if !st.IsEligible(v) {
			return fmt.Errorf("popped %d not eligible", v)
		}
		// Shard-min + rank bound: every available better-ranked task is on
		// another shard, so v's rank position among the e available tasks
		// is at most e - |available on v's shard| + 1.
		better, sameShard := 0, 0
		for u := range avail {
			if c.ShardOf(u) == c.ShardOf(v) {
				sameShard++
				if c.Rank(u) < c.Rank(v) {
					return fmt.Errorf("pop %d (rank %d) is not its shard's best: %d (rank %d) on shard %d",
						v, c.Rank(v), u, c.Rank(u), c.ShardOf(v))
				}
			} else if c.Rank(u) < c.Rank(v) {
				better++
			}
		}
		if pos, bound := better+1, len(avail)-sameShard+1; pos > bound {
			return fmt.Errorf("pop %d rank position %d exceeds structural bound %d", v, pos, bound)
		}
		delete(avail, v)
		realized = append(realized, v)
		packet, err := st.Execute(v)
		if err != nil {
			return fmt.Errorf("execute %d: %w", v, err)
		}
		c.PushAll(packet)
		for _, u := range packet {
			avail[u] = true
		}
	}
	if !c.Empty() {
		return fmt.Errorf("core not empty after drain")
	}
	if k == 1 && !equalIDs(realized, order) {
		return fmt.Errorf("k=1 realized %v, want the exact order %v", realized, order)
	}
	prof, err := sched.Profile(g, realized)
	if err != nil {
		return fmt.Errorf("realized order illegal: %w", err)
	}
	if maxE != nil {
		for t := range prof {
			if prof[t] > maxE[t] {
				return fmt.Errorf("relaxed profile exceeds oracle maximum at step %d: %d > %d", t, prof[t], maxE[t])
			}
		}
	}
	ratio, err := sched.WorstStepRatio(prof, want)
	if err != nil {
		return err
	}
	floor := 0.0
	for _, e := range want {
		if e > 0 && (floor == 0 || 1/float64(e) < floor) {
			floor = 1 / float64(e)
		}
	}
	if ratio < floor {
		return fmt.Errorf("worst step ratio %.4f below analytic floor %.4f", ratio, floor)
	}
	if k == 1 && ratio != 1 {
		return fmt.Errorf("k=1 worst step ratio %.4f, want exactly 1", ratio)
	}
	return nil
}

// checkRelaxedServer drains a relaxed(k) icserver serially: identical
// executed set, legal realized order, clean status, FNV ground truth.
func checkRelaxedServer(g *dag.Dag, order []dag.NodeID, ref []uint64, k int) error {
	srv := icserver.New(g, heur.Static("difftest", order),
		icserver.WithLease(0), icserver.WithRelaxed(k))
	vals := make([]uint64, g.NumNodes())
	realized := make([]dag.NodeID, 0, g.NumNodes())
	for {
		v, state := srv.Allocate()
		if state == icserver.AllocFinished {
			break
		}
		if state != icserver.AllocOK {
			return fmt.Errorf("stalled after %d grants", len(realized))
		}
		vals[v] = NodeValue(g, v, vals)
		realized = append(realized, v)
		if _, err := srv.Complete(v); err != nil {
			return fmt.Errorf("complete %d: %w", v, err)
		}
	}
	if len(realized) != g.NumNodes() {
		return fmt.Errorf("granted %d of %d tasks", len(realized), g.NumNodes())
	}
	if err := sched.Validate(g, realized); err != nil {
		return fmt.Errorf("realized order illegal: %w", err)
	}
	status := srv.Status()
	if status.Completed != g.NumNodes() || status.Stalls != 0 || status.Reissues != 0 || status.Quarantined != 0 {
		return fmt.Errorf("status %+v after clean serial drive", status)
	}
	if k == 1 && !equalIDs(realized, order) {
		return fmt.Errorf("relaxed(1) server realized a different order than the locked path")
	}
	return equalValues(vals, ref)
}
