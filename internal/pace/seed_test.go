package pace

import (
	"bytes"
	"testing"

	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// phasePairs drains, k pairs at a time, the promising-pair stream a
// single worker owning every bucket would ship to the master, and
// returns it with the raw pair count.
func phasePairs(t *testing.T, set *seq.Set, cfg Config, k int) ([]PairItem, int64) {
	t.Helper()
	cfg = cfg.withDefaults()
	var out []PairItem
	var raw int64
	err := mpi.Run(1, func(c *mpi.Comm) {
		cfg.Metrics = metrics.New(c.Rank(), c.Time)
		buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: cfg.Psi, PrefixLen: cfg.PrefixLen})
		if err != nil {
			panic(err)
		}
		own := make([]int, len(buckets))
		for i := range own {
			own[i] = i
		}
		src, err := newPairSource(c, set, own, buckets, cfg, "rr")
		if err != nil {
			panic(err)
		}
		for {
			pairs, exhausted := src.next(k)
			out = append(out, pairs...)
			if exhausted {
				raw, _ = src.counts()
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, raw
}

// oraclePairs enumerates the deduplicated generalized-suffix-tree pair
// set, first (longest) occurrence per sequence pair.
func oraclePairs(t *testing.T, set *seq.Set, opt suffixtree.Options) []PairItem {
	t.Helper()
	trees, err := suffixtree.Build(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var out []PairItem
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		if key := pairKey(p.SeqA, p.SeqB); !seen[key] {
			seen[key] = true
			out = append(out, PairItem{A: p.SeqA, B: p.SeqB, OffA: p.OffA, OffB: p.OffB, Len: p.Len})
		}
		return true
	})
	return out
}

// TestPairSeedsAreMaximalMatches asserts the seed coordinates carried on
// every PairItem — the (OffA, OffB, Len) the cascade anchors its banded
// kernels on — locate a genuine maximal match: the substrings are equal
// and the match can extend in neither direction. It checks the
// pipeline's sparse pair stream and the suffix-tree oracle alike.
func TestPairSeedsAreMaximalMatches(t *testing.T) {
	set, _ := famSet(t)
	const psi = 6
	sparse, _ := phasePairs(t, set, Config{Psi: psi}, 1024)
	for _, stream := range []struct {
		name  string
		pairs []PairItem
	}{
		{"gst", oraclePairs(t, set, suffixtree.Options{MinMatch: psi, PrefixLen: 2})},
		{"sparse", sparse},
	} {
		t.Run(stream.name, func(t *testing.T) {
			if len(stream.pairs) == 0 {
				t.Fatal("pair stream was empty; the workload should produce promising pairs")
			}
			for _, p := range stream.pairs {
				a := set.Get(int(p.A)).Res
				b := set.Get(int(p.B)).Res
				oa, ob, l := int(p.OffA), int(p.OffB), int(p.Len)
				if l < psi {
					t.Fatalf("pair (%d,%d): seed length %d below psi %d", p.A, p.B, l, psi)
				}
				if oa < 0 || ob < 0 || oa+l > len(a) || ob+l > len(b) {
					t.Fatalf("pair (%d,%d): seed (%d,%d,%d) out of range (%d,%d)",
						p.A, p.B, oa, ob, l, len(a), len(b))
				}
				if !bytes.Equal(a[oa:oa+l], b[ob:ob+l]) {
					t.Fatalf("pair (%d,%d): seed substrings differ at (%d,%d,%d)", p.A, p.B, oa, ob, l)
				}
				if oa > 0 && ob > 0 && a[oa-1] == b[ob-1] {
					t.Fatalf("pair (%d,%d): seed (%d,%d,%d) not left-maximal", p.A, p.B, oa, ob, l)
				}
				if oa+l < len(a) && ob+l < len(b) && a[oa+l] == b[ob+l] {
					t.Fatalf("pair (%d,%d): seed (%d,%d,%d) not right-maximal", p.A, p.B, oa, ob, l)
				}
			}
			t.Logf("%s: verified %d seeds", stream.name, len(stream.pairs))
		})
	}
}
