package profam

import (
	"fmt"
	"log/slog"
	"sort"
	"strconv"

	"profam/internal/metrics"
	"profam/internal/minhash"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
	"profam/internal/spgemm"
	"profam/internal/suffixtree"
	"profam/internal/trace"
	"profam/internal/unionfind"
)

// LSH similarity sharding (DESIGN.md §7f): phases 1+2 run as Config.Shards
// independent sub-problems, each driven by its own master inside a rank
// group carved out of the world communicator with mpi.Comm.Split, plus a
// masterless cross-shard boundary pass. The flow:
//
//  1. Signature phase (world comm, striped): every sequence gets a MinHash
//     signature over its distinct ψ-mer hashes under a fingerprint-seeded
//     permutation family, folded by LSH banding into band buckets.
//     Sequences colliding in any band cluster together and whole clusters
//     are placed greedily on shards (rank 0 places, broadcasts the
//     assignment).
//  2. Boundary candidates (world comm, bucket-partitioned): each rank
//     drains the sparse pair multiply of internal/spgemm — the generator
//     of every promising pair in the pipeline — over the suffix buckets
//     suffixtree.AssignBuckets gives it, and keeps the pairs whose sides
//     sit on different shards. The buckets cover every maximal match
//     ≥ ψ, so cross-shard candidate recall is exact — LSH banding only
//     decides placement, never recall.
//  3. Per-shard RR, then CCD (rank groups): group g = ranks ≡ g (mod G)
//     serves shards ≡ g (mod G) sequentially, each shard an unchanged
//     master–worker phase over the shard's subset.
//  4. Boundary merge (world comm): cross-shard candidates surviving a
//     static filter against the per-shard verdicts are aligned in place
//     on each owning rank; positive verdicts gather on rank 0, where RR
//     marks replay in a canonical order and CCD edges fold into a global
//     union–find (merges commute), followed by a global renumber.

// shardSig carries one rank's stripe of LSH band buckets (ShardBands
// per sequence, flattened) to the placement on rank 0.
type shardSig struct {
	Seqs  []int32
	Bands []uint64
}

// WireSize implements mpi.Sized.
func (s shardSig) WireSize() int { return 24 + 4*len(s.Seqs) + 8*len(s.Bands) }

// tagShardCtl carries the leader hops of tree broadcasts, distinct from
// the master–worker tags so a stray phase message can never match it.
const tagShardCtl = 14

// treeBcast broadcasts rank 0's data in two hops: world sends to the G
// group leaders (parent ranks 1..G-1; leader g is sub rank 0 of group g
// because sub ranks renumber by ascending parent rank), then concurrent
// sub-group broadcasts. Rank 0's link carries the payload G-1 times
// instead of p-1 — the difference between milliseconds and tens of
// milliseconds for corpus-sized arrays on a 64-rank job. Sequential
// calls share tagShardCtl safely: matching is FIFO per (sender, tag).
func treeBcast(c, sub *mpi.Comm, G int, data any) any {
	if c.Size() == 1 {
		return data
	}
	if c.Rank() == 0 {
		for g := 1; g < G; g++ {
			c.Send(g, tagShardCtl, data)
		}
	} else if c.Rank() < G {
		data = c.Recv(0, tagShardCtl).Data
	}
	return sub.Bcast(0, data)
}

// shardMask is a group leader's per-shard RR contribution: the IDs its
// shards marked redundant plus the summed phase stats.
type shardMask struct {
	Redundant []int32
	Stats     pace.Stats
}

// WireSize implements mpi.Sized.
func (m shardMask) WireSize() int { return 96 + 4*len(m.Redundant) }

// shardEdges is a group leader's per-shard CCD contribution: union edges
// (member → component label) reconstructing its shards' partitions.
type shardEdges struct {
	From, To []int32
	Stats    pace.Stats
}

// WireSize implements mpi.Sized.
func (e shardEdges) WireSize() int { return 96 + 4*(len(e.From)+len(e.To)) }

// shardVerdicts is one rank's boundary-pass result: the positive
// outcomes of its candidate share plus the stats they add to the phase.
type shardVerdicts struct {
	Results []pace.AlignOutcome
	Stats   pace.Stats
}

// WireSize implements mpi.Sized.
func (v shardVerdicts) WireSize() int { return 96 + 29*len(v.Results) }

// boundaryVerdicts folds one rank's boundary alignments into its
// verdicts: every task was generated and aligned, and raw counts the
// candidates it drew them from.
func boundaryVerdicts(out []pace.AlignOutcome, raw int64) shardVerdicts {
	v := shardVerdicts{Stats: pace.Stats{
		PairsRaw:       raw,
		PairsGenerated: int64(len(out)),
		PairsAligned:   int64(len(out)),
	}}
	for _, o := range out {
		v.Stats.Cells += o.Cells
		if o.OK {
			v.Results = append(v.Results, o)
		}
	}
	v.Stats.PairsPositive = int64(len(v.Results))
	return v
}

func registerShardWireTypes() {
	mpi.RegisterType(shardSig{})
	mpi.RegisterType(shardMask{})
	mpi.RegisterType(shardEdges{})
	mpi.RegisterType(shardVerdicts{})
}

// shardLabel formats the per-shard metric label value.
func shardLabel(s int) string { return strconv.Itoa(s) }

// shardAssignments runs the signature phase: striped MinHash + banding,
// a gather of every sequence's band buckets on rank 0, the deterministic
// placement there, and a broadcast of the result. Two
// sequences sharing any band bucket must cluster together (classic LSH
// candidate grouping, closed transitively with a union–find), and whole
// clusters are placed greedily — largest first onto the least-loaded
// shard — so high-similarity groups never straddle shards while shard
// sizes stay balanced. Placement is a pure function of the corpus and
// the shard knobs: the bucket walk, cluster order and tie-breaks are all
// over ascending sequence IDs, never map iteration order.
func shardAssignments(c, sub *mpi.Comm, G int, set *seq.Set, cfg Config, costs pace.CostParams, reg *metrics.Registry) []int32 {
	n, p := set.Len(), c.Size()
	B := cfg.ShardBands
	fam := minhash.NewFamilyFixed(B*cfg.ShardRows, uint64(cfg.ShardSeed))
	var my shardSig
	var sig, bkt []uint64
	var sigChars, sigOps int64
	for i := c.Rank(); i < n; i += p {
		res := set.Get(i).Res
		hs := minhash.KmerHashes(res, cfg.Psi)
		sigChars += int64(len(res)) * int64(cfg.Psi)
		sigOps += int64(len(hs)) * int64(len(fam.Perms))
		sig = fam.Signature(hs, sig)
		bkt = minhash.BandBuckets(sig, B, cfg.ShardRows, bkt)
		my.Seqs = append(my.Seqs, int32(i))
		my.Bands = append(my.Bands, bkt...)
	}
	// Hashing cost mirrors the index char calibration; permutation
	// evaluations are priced like the dense-subgraph phase's min-hash ops.
	c.Advance(float64(sigChars)*costs.SecPerTreeChar + float64(sigOps)*secPerShingleOp)

	// Rank 0 clusters and places; everyone else just learns the result.
	gathered := c.Gather(0, my)
	primary := make([]int32, n)
	if c.Rank() == 0 {
		bands := make([]uint64, n*B)
		for _, g := range gathered {
			gs := g.(shardSig)
			for k, id := range gs.Seqs {
				copy(bands[int(id)*B:int(id)*B+B], gs.Bands[k*B:(k+1)*B])
			}
		}
		placeShards(bands, n, B, cfg.Shards, primary)
		c.Advance(float64(n*B) * secPerShingleOp)
		sizes := make([]int64, cfg.Shards)
		for _, s := range primary {
			sizes[s]++
		}
		var maxSz int64
		for s, sz := range sizes {
			reg.Counter(metrics.Name("pace_shard_seqs", "shard", shardLabel(s))).Add(sz)
			if sz > maxSz {
				maxSz = sz
			}
		}
		if n > 0 {
			mean := float64(n) / float64(cfg.Shards)
			reg.Gauge("pace_shard_imbalance").Set(float64(maxSz) / mean)
		}
	}
	return treeBcast(c, sub, G, primary).([]int32)
}

// placeShards writes the shard assignment into primary: sequences
// colliding in any LSH band are unioned into clusters (the key mixes in
// the band index so equal tuples in different bands stay distinct), then
// clusters are placed largest first (ties by smallest member) onto the
// currently lightest shard (ties by lowest index). Every walk is over
// ascending sequence IDs — never map iteration order — so the placement
// is a pure function of the bands.
func placeShards(bands []uint64, n, B, shards int, primary []int32) {
	type bandKey struct {
		t int
		h uint64
	}
	uf := unionfind.New(n)
	firstIn := make(map[bandKey]int, n)
	for i := 0; i < n; i++ {
		for t := 0; t < B; t++ {
			k := bandKey{t, bands[i*B+t]}
			if j, ok := firstIn[k]; ok {
				uf.Union(i, j)
			} else {
				firstIn[k] = i
			}
		}
	}
	var clusters [][]int
	clusterOf := make(map[int]int)
	for i := 0; i < n; i++ {
		r := uf.Find(i)
		ci, ok := clusterOf[r]
		if !ok {
			ci = len(clusters)
			clusterOf[r] = ci
			clusters = append(clusters, nil)
		}
		clusters[ci] = append(clusters[ci], i)
	}
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := clusters[order[a]], clusters[order[b]]
		if len(ca) != len(cb) {
			return len(ca) > len(cb)
		}
		return ca[0] < cb[0]
	})
	load := make([]int, shards)
	for _, ci := range order {
		s := 0
		for t := 1; t < shards; t++ {
			if load[t] < load[s] {
				s = t
			}
		}
		load[s] += len(clusters[ci])
		for _, i := range clusters[ci] {
			primary[i] = int32(s)
		}
	}
}

// boundaryCandidates is this rank's share of the cross-shard promising
// pairs: the sparse multiply drained over the buckets
// suffixtree.AssignBuckets gives the rank, keeping the pairs whose sides
// sit on different shards. The multiply emits each pair once per rank;
// a pair whose maximal matches fall in buckets of two ranks reaches both,
// and since verdicts are deterministic the downstream merge absorbs the
// duplicate.
func boundaryCandidates(c *mpi.Comm, set *seq.Set, primary []int32, psi int, costs pace.CostParams) ([]pace.PairItem, error) {
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: psi})
	if err != nil {
		return nil, err
	}
	// Bucket builds are priced per posting at comparison width ψ, as in
	// the per-shard phases; generation per cross-shard pair kept.
	hooks := spgemm.Hooks{OnBucket: func(postings, _ int, _ int64) {
		c.Advance(float64(postings) * float64(psi) * costs.SecPerTreeChar)
	}}
	var out []pace.PairItem
	err = spgemm.Drain(set, buckets, suffixtree.AssignBuckets(buckets, c.Size())[c.Rank()],
		spgemm.Options{K: psi}, hooks, func(p suffixtree.Pair) {
			if primary[p.SeqA] != primary[p.SeqB] {
				out = append(out, pace.PairItem{A: p.SeqA, B: p.SeqB, OffA: p.OffA, OffB: p.OffB, Len: p.Len})
			}
		})
	c.Advance(float64(len(out)) * costs.SecPerPairGen)
	return out, err
}

// runShardedPhases executes phases 1+2 of the sharded pipeline and
// returns results shaped exactly like the single-master path: the global
// keep mask, component labels (smallest kept member per component, -1
// otherwise), the rank-0 union–find over the kept subset, and the two
// phases' summed stats. All returns except ccUF are rank-identical.
func runShardedPhases(c *mpi.Comm, set *seq.Set, cfg Config, pcfg pace.Config, reg *metrics.Registry, tracer *trace.Tracer, log *slog.Logger) (keep []bool, comp []int32, ccUF *unionfind.UF, rrStats, ccStats pace.Stats, err error) {
	n := set.Len()
	costs := pcfg.Costs
	if costs == (pace.CostParams{}) {
		costs = pace.DefaultCostParams()
	}

	// Rank groups: group g (ranks ≡ g mod G) serves shards ≡ g (mod G).
	// The split happens before the signature phase — the grouping depends
	// only on rank and shard count, and the sub-communicators double as
	// the second hop of the tree broadcasts below.
	G := cfg.Shards
	if p := c.Size(); G > p {
		G = p
	}
	color := c.Rank() % G
	sub := c.Split(color)
	sub.AttachMetrics(reg)
	if tracer != nil {
		sub.AttachTracer(tracer)
	}

	// Phase 0: signatures, shard assignment, boundary candidates.
	tracer.Instant(trace.CatPipeline, "phase:shard_sig", "shards", int64(cfg.Shards), "", 0)
	sigSpan := reg.StartSpan("shard/sig")
	primary := shardAssignments(c, sub, G, set, cfg, costs, reg)
	sigSpan.End()
	bndSpan := reg.StartSpan("shard/boundary_index")
	candidates, err := boundaryCandidates(c, set, primary, cfg.Psi, costs)
	if err != nil {
		return nil, nil, nil, rrStats, ccStats, err
	}
	reg.Counter("pace_shard_boundary_pairs").Add(int64(len(candidates)))
	bndSpan.End()

	shardIDs := make([][]int, cfg.Shards)
	for i := 0; i < n; i++ {
		s := primary[i]
		shardIDs[s] = append(shardIDs[s], i)
	}

	// Phase 1: per-shard redundancy removal, then the boundary pass.
	tracer.Instant(trace.CatPipeline, "phase:rr", "", 0, "", 0)
	rrStart := c.Time()
	rrSpan := reg.StartSpan("rr")
	var myMask shardMask
	for s := color; s < cfg.Shards; s += G {
		ids := shardIDs[s]
		if len(ids) == 0 {
			continue
		}
		subSet, orig := set.Subset(ids)
		keepSub, st, perr := pace.RedundancyRemovalPhase(sub, subSet, pcfg, fmt.Sprintf("rr@s%d", s))
		if perr != nil {
			return nil, nil, nil, rrStats, ccStats, perr
		}
		if sub.Rank() == 0 {
			for j, k := range keepSub {
				if !k {
					myMask.Redundant = append(myMask.Redundant, int32(orig[j]))
				}
			}
			myMask.Stats = myMask.Stats.Add(st)
			reg.Counter(metrics.Name("pace_shard_pairs", "shard", shardLabel(s))).Add(st.PairsGenerated)
		}
	}
	redundant := make([]bool, n)
	gatheredM := c.Gather(0, myMask)
	if c.Rank() == 0 {
		for _, g := range gatheredM {
			m := g.(shardMask)
			for _, id := range m.Redundant {
				redundant[id] = true
			}
			rrStats = rrStats.Add(m.Stats)
		}
	}
	redundant = treeBcast(c, sub, G, redundant).([]bool)

	// Boundary RR: candidates whose sides both survived their shards are
	// aligned in place; positive verdicts replay on rank 0 in a canonical
	// order (container length desc, contained length desc, then IDs) so
	// the final mask is a pure function of the verdict set.
	var rrTasks []pace.PairItem
	for _, t := range candidates {
		if !redundant[t.A] && !redundant[t.B] {
			rrTasks = append(rrTasks, t)
		}
	}
	c.Advance(float64(len(candidates)) * costs.SecPerPairFilter)
	rrOut := pace.AlignContainPairs(c, set, rrTasks, pcfg, "rr@boundary")
	gatheredV := c.Gather(0, boundaryVerdicts(rrOut, int64(len(candidates))))
	var demoted []int32
	if c.Rank() == 0 {
		var pos []pace.AlignOutcome
		for _, g := range gatheredV {
			gv := g.(shardVerdicts)
			rrStats = rrStats.Add(gv.Stats)
			pos = append(pos, gv.Results...)
		}
		sort.Slice(pos, func(i, j int) bool {
			ci, di := containerContained(pos[i])
			cj, dj := containerContained(pos[j])
			li, lj := len(set.Get(int(ci)).Res), len(set.Get(int(cj)).Res)
			if li != lj {
				return li > lj
			}
			mi, mj := len(set.Get(int(di)).Res), len(set.Get(int(dj)).Res)
			if mi != mj {
				return mi > mj
			}
			if ci != cj {
				return ci < cj
			}
			return di < dj
		})
		for _, o := range pos {
			container, contained := containerContained(o)
			if !redundant[container] && !redundant[contained] {
				redundant[contained] = true
				demoted = append(demoted, contained)
			}
		}
	}
	// Every rank already holds the pre-replay mask; only the replay's
	// marks (a handful of IDs) need the wire.
	demoted = treeBcast(c, sub, G, demoted).([]int32)
	keep = make([]bool, n)
	for i := range keep {
		keep[i] = !redundant[i]
	}
	for _, id := range demoted {
		keep[id] = false
	}
	rrSpan.End()
	rrEnd := c.MaxFloat64(c.Time())
	if c.Rank() == 0 {
		rrStats.PhaseTime = rrEnd - rrStart
	}

	// Phase 2: per-shard connected components, then the boundary merge.
	tracer.Instant(trace.CatPipeline, "phase:ccd", "", 0, "", 0)
	ccStart := c.Time()
	ccdSpan := reg.StartSpan("ccd")
	var myEdges shardEdges
	for s := color; s < cfg.Shards; s += G {
		shardKeep := make([]bool, n)
		cnt := 0
		for _, i := range shardIDs[s] {
			if keep[i] {
				shardKeep[i] = true
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		compS, _, st, perr := pace.ConnectedComponentsPhase(sub, set, shardKeep, pcfg, fmt.Sprintf("ccd@s%d", s))
		if perr != nil {
			return nil, nil, nil, rrStats, ccStats, perr
		}
		if sub.Rank() == 0 {
			for i, l := range compS {
				if l >= 0 && int32(i) != l {
					myEdges.From = append(myEdges.From, int32(i))
					myEdges.To = append(myEdges.To, l)
				}
			}
			myEdges.Stats = myEdges.Stats.Add(st)
			reg.Counter(metrics.Name("pace_shard_pairs", "shard", shardLabel(s))).Add(st.PairsGenerated)
		}
	}
	// Rank 0 folds the shards' partitions into one union–find over the
	// kept subset, in the sub-ID space ConnectedComponentsFrom uses (kept
	// IDs renumbered ascending), so it doubles as the commitable state.
	gatheredE := c.Gather(0, myEdges)
	var kept, subOf []int
	var interim []int32
	if c.Rank() == 0 {
		subOf = make([]int, n)
		for i := 0; i < n; i++ {
			if keep[i] {
				subOf[i] = len(kept)
				kept = append(kept, i)
			}
		}
		ccUF = unionfind.New(len(kept))
		for _, g := range gatheredE {
			ge := g.(shardEdges)
			for k := range ge.From {
				ccUF.Union(subOf[ge.From[k]], subOf[ge.To[k]])
			}
			ccStats = ccStats.Add(ge.Stats)
		}
		interim = pace.LabelComponents(ccUF, kept, n)
	}
	interim = treeBcast(c, sub, G, interim).([]int32)

	// Boundary CCD: cross-shard candidates joining two still-distinct
	// components are union edges after a positive overlap alignment.
	// Union–find merges commute, so the gather order cannot matter.
	var ccTasks []pace.PairItem
	for _, t := range candidates {
		if keep[t.A] && keep[t.B] && interim[t.A] != interim[t.B] {
			ccTasks = append(ccTasks, t)
		}
	}
	c.Advance(float64(len(candidates)) * costs.SecPerPairFilter)
	ccOut := pace.AlignOverlapPairs(c, set, ccTasks, pcfg, "ccd@boundary")
	gatheredV = c.Gather(0, boundaryVerdicts(ccOut, 0))
	if c.Rank() == 0 {
		for _, g := range gatheredV {
			gv := g.(shardVerdicts)
			ccStats = ccStats.Add(gv.Stats)
			for _, o := range gv.Results {
				ccUF.Union(subOf[o.A], subOf[o.B])
			}
		}
		comp = pace.LabelComponents(ccUF, kept, n)
	}
	comp = treeBcast(c, sub, G, comp).([]int32)
	ccdSpan.End()
	ccEnd := c.MaxFloat64(c.Time())
	if c.Rank() == 0 {
		ccStats.PhaseTime = ccEnd - ccStart
	}
	rrStats = c.Bcast(0, rrStats).(pace.Stats)
	ccStats = c.Bcast(0, ccStats).(pace.Stats)
	if c.Rank() == 0 {
		log.Info("sharded phases done",
			"shards", cfg.Shards, "groups", G,
			"boundary_tasks", len(rrTasks)+len(ccTasks), "t", c.Time())
	}
	return keep, comp, ccUF, rrStats, ccStats, nil
}

// containerContained orients an RR outcome: Which == 1 means B was the
// contained side (mirroring rrMaster.absorb).
func containerContained(o pace.AlignOutcome) (container, contained int32) {
	if o.Which == 1 {
		return o.A, o.B
	}
	return o.B, o.A
}
