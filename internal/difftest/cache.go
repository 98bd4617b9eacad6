package difftest

import (
	"fmt"
	"math/rand"

	"icsched/internal/dag"
	"icsched/internal/icserver"
	"icsched/internal/sched"
	"icsched/internal/schedcache"
)

// checkCache is the schedule-cache differential lane: on every instance
// it proves the cold-miss → warm-hit round trip is bit-identical (order
// and realized profile), that the warm order replays through the real
// task server exactly, that a relabeled twin hits the cache with a
// legal profile-preserving translation, and that a near-miss dag (same
// node count, one arc removed) does NOT hit — the isomorphism guard has
// to tell the shapes apart.
func checkCache(g *dag.Dag, order []dag.NodeID, want []int, ref []uint64, rng *rand.Rand) error {
	cache := schedcache.New(schedcache.Options{Capacity: 8, Shards: 1})
	compute := func() ([]dag.NodeID, string, error) { return order, "difftest", nil }

	cold, err := cache.GetOrCompute(g, "difftest", compute)
	if err != nil {
		return fmt.Errorf("cold lookup: %w", err)
	}
	if cold.Hit {
		return fmt.Errorf("cold lookup reported a hit")
	}
	warm, err := cache.GetOrCompute(g, "difftest", compute)
	if err != nil {
		return fmt.Errorf("warm lookup: %w", err)
	}
	if !warm.Hit || !warm.Exact {
		return fmt.Errorf("warm lookup: hit=%v exact=%v, want true/true", warm.Hit, warm.Exact)
	}
	if !equalIDs(cold.Order, warm.Order) {
		return fmt.Errorf("warm order differs from cold order")
	}
	if !equalInts(cold.Profile, want) || !equalInts(warm.Profile, want) {
		return fmt.Errorf("cached profile differs from model profile")
	}

	// The warm order drives the real server in replay mode and realizes
	// itself exactly, with the fleet values matching the serial reference.
	if err := driveReplay(g, warm.Order, ref); err != nil {
		return fmt.Errorf("replay drive: %w", err)
	}

	// A canonically-relabeled twin is the same shape, and canonicalization
	// provably normalizes it back (an arbitrary permutation carries no
	// such guarantee — the conservative guard may treat it as a miss): it
	// must hit, translate to a legal order on the twin's labeling, and
	// preserve the profile.
	twin := canonicalTwin(g)
	tw, err := cache.GetOrCompute(twin, "difftest", func() ([]dag.NodeID, string, error) {
		return nil, "", fmt.Errorf("isomorphic twin missed the cache")
	})
	if err != nil {
		return fmt.Errorf("twin lookup: %w", err)
	}
	if !tw.Hit {
		return fmt.Errorf("twin lookup missed")
	}
	var st sched.State
	st.Reset(twin)
	if err := st.Replay(tw.Order); err != nil {
		return fmt.Errorf("translated twin order illegal: %w", err)
	}
	if !equalInts(tw.Profile, want) {
		return fmt.Errorf("twin profile differs from model profile")
	}

	// A near-miss — same node count, one arc dropped — must not hit.
	if g.NumArcs() > 0 {
		near := dropArc(g, rng)
		sg, _ := schedcache.Canonicalize(g)
		sn, _ := schedcache.Canonicalize(near)
		if sg.Equal(sn) {
			return fmt.Errorf("isomorphism guard cannot tell a dropped arc apart")
		}
		nr, err := cache.GetOrCompute(near, "difftest", func() ([]dag.NodeID, string, error) {
			return near.TopoOrder(), "difftest", nil
		})
		if err != nil {
			return fmt.Errorf("near-miss lookup: %w", err)
		}
		if nr.Hit {
			return fmt.Errorf("near-miss dag (one arc dropped) falsely hit the cache")
		}
	}
	return nil
}

// driveReplay runs order through a real task server under the strict
// replay policy with a serial client: the realized sequence must be the
// order itself, and the computed values the serial reference.
func driveReplay(g *dag.Dag, order []dag.NodeID, ref []uint64) error {
	srv := icserver.New(g, schedcache.Replay("IC-CACHED", order), icserver.WithLease(0))
	vals := make([]uint64, g.NumNodes())
	for i := 0; ; i++ {
		v, state := srv.Allocate()
		switch state {
		case icserver.AllocFinished:
			if i != len(order) {
				return fmt.Errorf("finished after %d grants, want %d", i, len(order))
			}
			if err := equalValues(vals, ref); err != nil {
				return err
			}
			return nil
		case icserver.AllocOK:
		default:
			return fmt.Errorf("server stalled at position %d", i)
		}
		if i >= len(order) || v != order[i] {
			return fmt.Errorf("grant %d = task %d, want %d", i, v, order[i])
		}
		vals[v] = NodeValue(g, v, vals)
		if _, err := srv.Complete(v); err != nil {
			return err
		}
	}
}

// canonicalTwin relabels g by its own canonical permutation: an
// isomorphic dag (generally with different labels) that canonicalizes
// to the identical shape — the positive-hit case the cache guarantees.
func canonicalTwin(g *dag.Dag) *dag.Dag {
	_, perm := schedcache.Canonicalize(g)
	b := dag.NewBuilder(g.NumNodes())
	for _, a := range g.Arcs() {
		b.AddArc(perm[a.From], perm[a.To])
	}
	return b.MustBuild()
}

// dropArc rebuilds g without one uniformly chosen arc: the canonical
// near-miss — identical node count, different shape.
func dropArc(g *dag.Dag, rng *rand.Rand) *dag.Dag {
	arcs := g.Arcs()
	skip := rng.Intn(len(arcs))
	b := dag.NewBuilder(g.NumNodes())
	for i, a := range arcs {
		if i == skip {
			continue
		}
		b.AddArc(a.From, a.To)
	}
	return b.MustBuild()
}
