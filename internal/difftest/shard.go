package difftest

// The sharded differential lane: every instance is cut into K
// shard-local dags (alternating the schedule-guided and depth-banded
// partitioners), run through a shard.Coordinator — K embedded
// icserver cores joined by the arc-forwarding bus — and driven by the
// restriction of the instance's schedule.  Per Theorem 2.1 the
// recombined run must realize the global order exactly: every grant
// is predicted, the FNV values must match the single-server ground
// truth, and the recombined eligibility profile must be bit-identical
// to the model profile of the unsharded run.

import (
	"fmt"
	"math/rand"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/shard"
)

// checkShard cuts the instance and proves the sharded run recombines
// into the single-server schedule bit for bit.
func checkShard(g *dag.Dag, order []dag.NodeID, want []int, ref []uint64, rng *rand.Rand) error {
	k := 2 + rng.Intn(3)
	var (
		p   *shard.Partition
		err error
	)
	if rng.Intn(2) == 0 {
		p, err = shard.ByOrder(g, k, order)
	} else {
		p, err = shard.ByLevels(g, k)
	}
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	c, err := shard.New(g, order, p, shard.Config{})
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer c.Kill()

	vals := make([]uint64, g.NumNodes())
	realized := make([]dag.NodeID, 0, len(order))
	for i, v := range order {
		s := p.ShardOf[v]
		srv := c.Server(s)
		got, state := srv.Allocate()
		if state != icserver.AllocOK {
			return fmt.Errorf("step %d (global %d, shard %d/%d %s): alloc state %v, want a grant",
				i, v, s, p.K, p.Method, state)
		}
		gv := p.Global(s, got)
		if gv != v {
			return fmt.Errorf("step %d: shard %d granted global %d, restriction predicts %d", i, s, gv, v)
		}
		vals[gv] = NodeValue(g, gv, vals)
		if _, err := srv.Complete(got); err != nil {
			return fmt.Errorf("step %d: complete: %w", i, err)
		}
		c.Pump() // deliver this completion's cross-shard credits before the next grant
		realized = append(realized, gv)
	}
	if !c.Finished() {
		return fmt.Errorf("coordinator not finished after the full order")
	}
	if err := equalValues(vals, ref); err != nil {
		return err
	}
	// The recombined profile must be bit-identical to the single-server
	// model profile — the Theorem 2.1 composition guarantee.
	prof, err := sched.Profile(g, realized)
	if err != nil {
		return fmt.Errorf("recombined order illegal: %w", err)
	}
	if !equalInts(prof, want) {
		return fmt.Errorf("recombined profile %v, single-server profile %v", prof, want)
	}
	st := c.Status()
	if st.Completed != g.NumNodes() || st.Quarantined != 0 || st.Reissues != 0 {
		return fmt.Errorf("status %+v after clean sharded drive", st)
	}
	if st.ArcsForwarded != len(p.Cross) {
		return fmt.Errorf("forwarded %d credits, cross set has %d arcs", st.ArcsForwarded, len(p.Cross))
	}
	return nil
}
