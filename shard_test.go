package profam_test

import (
	"errors"
	"fmt"
	"testing"

	"profam"
	"profam/internal/mpi"
	"profam/internal/quality"
	"profam/internal/seq"
	"profam/internal/suffixtree"
	"profam/internal/workload"
)

// shardedSet is the planted corpus for the sharded-vs-unsharded identity
// tests: enough families that LSH banding actually spreads them across
// shards, with containment so the boundary RR replay is exercised.
func shardedSet() (*seq.Set, *workload.Truth) {
	return workload.Generate(workload.Params{
		Families: 8, MeanFamilySize: 9, MeanLength: 100,
		Divergence: 0.08, IndelRate: 0.004, Subfamilies: 2,
		ContainedFrac: 0.25, Singletons: 6, Seed: 7101,
	})
}

// TestShardedMatchesUnsharded: the sharded pipeline must emit families
// byte-identical to the single-master pipeline for every rank count ×
// shard count, because the boundary pass restores exactly the cross-shard
// pairs the single master would have considered (DESIGN.md §7f).
func TestShardedMatchesUnsharded(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	want, _, err := profam.RunSet(set, 1, false, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 8} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("p=%d/shards=%d", p, shards), func(t *testing.T) {
				cfg := base
				cfg.Shards = shards
				got, _, err := profam.RunSet(set, p, false, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
					t.Fatalf("sharded families differ from unsharded reference\n got: %v\nwant: %v",
						got.Families, want.Families)
				}
				if got.NumNonRedundant != want.NumNonRedundant {
					t.Fatalf("non-redundant count differs: %d vs %d",
						got.NumNonRedundant, want.NumNonRedundant)
				}
			})
		}
	}
}

// TestBoundaryCandidatesExactRecall: the union over ranks of the
// boundary pass's candidates is exactly the set of promising pairs —
// the suffix-tree oracle's maximal-match pairs ≥ ψ — whose sides sit on
// different shards, and no rank emits a pair twice (DESIGN.md §7f).
func TestBoundaryCandidatesExactRecall(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	cfg := profam.Config{Psi: 6, Shards: 4}
	trees, err := suffixtree.Build(set, suffixtree.Options{MinMatch: cfg.Psi})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			primary, perRank, err := profam.BoundaryCandidates(set, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int32]bool{}
			suffixtree.MergedPairs(trees, func(q suffixtree.Pair) bool {
				if primary[q.SeqA] != primary[q.SeqB] {
					want[[2]int32{q.SeqA, q.SeqB}] = true
				}
				return true
			})
			if len(want) == 0 {
				t.Fatal("placement left no cross-shard promising pairs to check")
			}
			got := map[[2]int32]bool{}
			for r, pairs := range perRank {
				mine := map[[2]int32]bool{}
				for _, pr := range pairs {
					if mine[pr] {
						t.Fatalf("rank %d emitted %v twice", r, pr)
					}
					mine[pr] = true
					got[pr] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("boundary candidates: %d pairs, oracle cross-shard pairs: %d", len(got), len(want))
			}
			for pr := range want {
				if !got[pr] {
					t.Fatalf("oracle cross-shard pair %v missing from the boundary candidates", pr)
				}
			}
		})
	}
}

// TestShardedQuality: on a larger generated corpus, sharded families must
// agree with the unsharded partition at ≥99% pairwise F1 (they are exact
// on the corpora above; this guards the property on a corpus with more
// divergence and more singleton noise).
func TestShardedQuality(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := workload.Generate(workload.Params{
		Families: 12, MeanFamilySize: 10, MeanLength: 120,
		Divergence: 0.12, IndelRate: 0.006, Subfamilies: 3,
		ContainedFrac: 0.15, Singletons: 15, Seed: 9412,
	})
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	want, _, err := profam.RunSet(set, 1, false, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Shards = 4
	got, _, err := profam.RunSet(set, 4, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := quality.Compare(got.FamilyLabels(), want.FamilyLabels())
	if err != nil {
		t.Fatal(err)
	}
	p, r := conf.Precision(), conf.Sensitivity()
	f1 := 0.0
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	if f1 < 0.99 {
		t.Fatalf("sharded vs unsharded pairwise F1 = %.4f < 0.99 (%v)", f1, conf)
	}
}

// TestShardedSimtimeDeterministic: under the virtual-time transport the
// sharded pipeline must reproduce families AND makespan bit-for-bit, and
// match the inproc transport's families at the same rank count.
func TestShardedSimtimeDeterministic(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		Shards: 4, BatchPairs: 128, BatchTasks: 32}
	run := func() (*profam.Result, float64) {
		var res *profam.Result
		mk, err := mpi.RunSim(6, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			r, err := profam.RunPipelineOn(c, set, cfg)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, mk
	}
	a, mkA := run()
	b, mkB := run()
	if mkA != mkB {
		t.Fatalf("sharded simtime makespan not deterministic: %v vs %v", mkA, mkB)
	}
	if fmt.Sprint(a.Families) != fmt.Sprint(b.Families) {
		t.Fatal("sharded simtime families not deterministic")
	}
	var inproc *profam.Result
	if err := mpi.Run(6, func(c *mpi.Comm) {
		r, err := profam.RunPipelineOn(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			inproc = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Families) != fmt.Sprint(inproc.Families) {
		t.Fatal("sharded simtime families differ from inproc at same rank count")
	}
}

// TestShardedScalingWin pins the headline perf claim: on a master-bound
// corpus (many short, highly redundant sequences, so the single master
// serializes on pair filtering and verdict traffic while worker DP stays
// cheap) at 64 simulated BlueGene-class ranks, running 8 rank-group
// masters cuts the virtual-time makespan by at least 3×. Families must
// still match the single-master run exactly.
func TestShardedScalingWin(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank simulation is slow")
	}
	profam.RegisterWireTypes()
	set, _ := workload.Generate(workload.Params{
		Families: 120, MeanFamilySize: 70, MeanLength: 32,
		Divergence: 0.004, IndelRate: 0.001, Subfamilies: 1,
		ContainedFrac: 0.5, Singletons: 40, Seed: 4242,
	})
	run := func(shards int) (*profam.Result, float64) {
		cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
			Shards: shards, BatchPairs: 128, BatchTasks: 32, ThreadsPerRank: 16}
		var res *profam.Result
		mk, err := mpi.RunSim(64, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			r, err := profam.RunPipelineOn(c, set, cfg)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, mk
	}
	single, mkSingle := run(1)
	sharded, mkSharded := run(8)
	// This corpus is containment-chain heavy, so redundancy removal is
	// order-sensitive and byte-identity is not guaranteed (DESIGN.md §7f);
	// the partition must still agree at ≥99% pairwise F1.
	conf, err := quality.Compare(sharded.FamilyLabels(), single.FamilyLabels())
	if err != nil {
		t.Fatal(err)
	}
	p, r := conf.Precision(), conf.Sensitivity()
	f1 := 0.0
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	if f1 < 0.99 {
		t.Fatalf("sharded vs single-master pairwise F1 = %.4f < 0.99 on scaling corpus", f1)
	}
	speedup := mkSingle / mkSharded
	t.Logf("simtime makespan: single-master %.4fs, 8 shards %.4fs, speedup %.2fx",
		mkSingle, mkSharded, speedup)
	if speedup < 3.0 {
		t.Fatalf("sharded makespan speedup %.2fx < 3.0x (single=%.4fs sharded=%.4fs)",
			speedup, mkSingle, mkSharded)
	}
}

// TestShardedEpochDrift: the epoch fingerprint carries the shard knobs,
// so changing the shard count mid-service must reject the incremental
// epoch instead of silently mixing placements.
func TestShardedEpochDrift(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	names, seqs := setStrings(set)
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, Shards: 2}
	_, st, err := profam.RunEpoch(nil, names[:20], seqs[:20], 2, base)
	if err != nil {
		t.Fatal(err)
	}
	drift := base
	drift.Shards = 4
	_, next, err := profam.RunEpoch(st, names[20:30], seqs[20:30], 2, drift)
	if !errors.Is(err, profam.ErrConfigChanged) {
		t.Fatalf("err = %v, want profam.ErrConfigChanged on shard-count drift", err)
	}
	if next != st {
		t.Error("rejected epoch did not return the prior state unchanged")
	}
}

// TestShardedEpochsMatchCold: a sharded service ingesting in waves must
// serve exactly what a cold sharded run over the union corpus computes.
// Sharded epochs always recluster from scratch (no incremental reuse),
// so this is the determinism contract the profamd ledger digest relies
// on.
func TestShardedEpochsMatchCold(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	names, seqs := setStrings(set)
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, Shards: 2}
	half := len(seqs) / 2
	_, st, err := profam.RunEpoch(nil, names[:half], seqs[:half], 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := profam.RunEpoch(st, names[half:], seqs[half:], 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := profam.RunSet(set, 2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
		t.Fatal("sharded incremental epochs differ from cold sharded run on the union corpus")
	}
}

// TestShardedTCP: the sharded pipeline over real sockets (split
// communicators included) must match the serial unsharded reference.
func TestShardedTCP(t *testing.T) {
	profam.RegisterWireTypes()
	set, _ := shardedSet()
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	want, _, err := profam.RunSet(set, 1, false, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Shards = 2
	got, _, err := profam.RunSet(set, 4, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
		t.Fatal("sharded TCP families differ from unsharded serial reference")
	}
}
