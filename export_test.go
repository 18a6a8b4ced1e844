package profam

import (
	"sync"

	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
)

// BoundaryCandidates runs the sharded pipeline's signature phase and
// boundary candidate pass on p in-process ranks and returns the shard
// placement and each rank's candidate pairs as (A, B) with A < B.
func BoundaryCandidates(set *seq.Set, p int, cfg Config) ([]int32, [][][2]int32, error) {
	cfg = cfg.withDefaults()
	G := min(cfg.Shards, p)
	var primary []int32
	perRank := make([][][2]int32, p)
	var mu sync.Mutex
	var firstErr error
	err := mpi.Run(p, func(c *mpi.Comm) {
		sub := c.Split(c.Rank() % G)
		costs := pace.DefaultCostParams()
		prim := shardAssignments(c, sub, G, set, cfg, costs, metrics.New(c.Rank(), c.Time))
		cands, err := boundaryCandidates(c, set, prim, cfg.Psi, costs)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if c.Rank() == 0 {
			primary = prim
		}
		for _, t := range cands {
			perRank[c.Rank()] = append(perRank[c.Rank()], [2]int32{t.A, t.B})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return primary, perRank, firstErr
}
