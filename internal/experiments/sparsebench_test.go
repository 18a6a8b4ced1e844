package experiments

import (
	"testing"

	"profam/internal/suffixtree"
)

// The sparse pair-generation kernel enumerates the suffix-tree oracle's
// candidate set, so the deduplicated pair counts must coincide; and the
// sparse peak must sit below the suffix-tree sum even on a modest corpus.
func TestSparseBenchKernels(t *testing.T) {
	set, _ := SetOfSize(300, 47)
	trees, err := suffixtree.Build(set, suffixtree.Options{MinMatch: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int32]bool{}
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		seen[[2]int32{p.SeqA, p.SeqB}] = true
		return true
	})
	sparsePairs, err := PairGenSparseKernel(set, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || len(seen) != sparsePairs {
		t.Fatalf("pair counts diverge: gst=%d sparse=%d", len(seen), sparsePairs)
	}
	gstBytes, sparseBytes, ratio, err := SparsePeakBytesRatio(set, 7)
	if err != nil {
		t.Fatal(err)
	}
	if gstBytes <= 0 || sparseBytes <= 0 {
		t.Fatalf("degenerate footprints: gst=%d sparse=%d", gstBytes, sparseBytes)
	}
	if ratio <= 1.0 {
		t.Fatalf("sparse peak (%d) not below GST (%d): ratio %.2f", sparseBytes, gstBytes, ratio)
	}
}
