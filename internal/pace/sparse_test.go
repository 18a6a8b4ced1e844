package pace

import (
	"testing"

	"profam/internal/suffixtree"
)

// TestSparseIndexMatchesGST: the phase's sparse pair stream must carry
// exactly the generalized-suffix-tree promising-pair set, and the phases
// it drives must agree across rank counts. Raw pair counts are not
// compared with the tree — it counts maximal-match occurrences (with a
// left-maximality skip), the sparse multiply counts distinct-sequence
// pairs per k-mer row — but the raw count must be partition-invariant
// across ranks.
func TestSparseIndexMatchesGST(t *testing.T) {
	set, _ := famSet(t)
	cfg := Config{Psi: 6}

	stream, _ := phasePairs(t, set, cfg, 1024)
	got := map[int64]bool{}
	for _, p := range stream {
		key := pairKey(p.A, p.B)
		if got[key] {
			t.Fatalf("pair (%d,%d) emitted twice", p.A, p.B)
		}
		got[key] = true
	}
	want := oraclePairs(t, set, suffixtree.Options{MinMatch: 6, PrefixLen: 2})
	if len(got) != len(want) {
		t.Fatalf("sparse stream has %d pairs, suffix-tree oracle %d", len(got), len(want))
	}
	for _, p := range want {
		if !got[pairKey(p.A, p.B)] {
			t.Fatalf("oracle pair (%d,%d) missing from the sparse stream", p.A, p.B)
		}
	}

	keepS, stS := runRR(t, set, cfg, 1)
	if stS.PairsRaw == 0 {
		t.Error("sparse run reported zero raw pairs")
	}
	compS, _ := runCCD(t, set, keepS, cfg, 1)
	for _, p := range []int{2, 4} {
		keepP, stP := runRR(t, set, cfg, p)
		for i := range keepS {
			if keepS[i] != keepP[i] {
				t.Fatalf("p=%d keep[%d] differs", p, i)
			}
		}
		if stP.PairsRaw != stS.PairsRaw {
			t.Errorf("p=%d raw count %d, serial %d", p, stP.PairsRaw, stS.PairsRaw)
		}
		compP, _ := runCCD(t, set, keepP, cfg, p)
		if !samePartition(compS, compP) {
			t.Errorf("p=%d components differ from serial", p)
		}
	}
}

// TestSparseKnobsStillConverge: a tiny accumulator block must not change
// the clustering outcome — block bounds are batching only.
func TestSparseKnobsStillConverge(t *testing.T) {
	set, _ := famSet(t)
	ref := Config{Psi: 6}
	small := Config{Psi: 6, SparseBlockNNZ: 64}

	keepR, _ := runRR(t, set, ref, 1)
	keepS, _ := runRR(t, set, small, 2)
	for i := range keepR {
		if keepR[i] != keepS[i] {
			t.Fatalf("keep[%d] differs under a tiny accumulator block", i)
		}
	}
	compR, _ := runCCD(t, set, keepR, ref, 1)
	compS, _ := runCCD(t, set, keepS, small, 2)
	if !samePartition(compR, compS) {
		t.Error("components differ under a tiny accumulator block")
	}
}
