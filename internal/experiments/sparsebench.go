package experiments

import (
	"profam/internal/seq"
	"profam/internal/spgemm"
	"profam/internal/suffixtree"
)

// PairGenSparseKernel is the pipeline's pair-generation path in
// isolation: the blocked k-mer × sequence multiply streamed over every
// bucket, drained to exhaustion. It returns the emitted pair count — the
// deduplicated promising-pair count of the suffix-tree oracle on the
// same set, since the candidate sets coincide.
func PairGenSparseKernel(set *seq.Set, psi int) (int, error) {
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: psi})
	if err != nil {
		return 0, err
	}
	n := 0
	err = spgemm.Drain(set, buckets, suffixtree.AssignBuckets(buckets, 1)[0],
		spgemm.Options{K: psi}, spgemm.Hooks{}, func(suffixtree.Pair) { n++ })
	return n, err
}

// SparsePeakBytesRatio compares the peak index memory of a generalized
// suffix tree over the corpus's buckets with the sparse pair source's.
// The tree holds every subtree of the assignment alive for the whole
// phase, so its peak is the sum of all subtree footprints; the sparse
// source materializes one bucket's CSR block at a time, so its peak is
// the largest single block. Both sides are deterministic arithmetic over
// the same bucket list — no timing involved. Returns the two byte counts
// and their ratio (gst/sparse; > 1 means the sparse source peaks lower).
func SparsePeakBytesRatio(set *seq.Set, psi int) (gstBytes, sparseBytes int64, ratio float64, err error) {
	opt := suffixtree.Options{MinMatch: psi}
	buckets, err := suffixtree.Buckets(set, opt)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, b := range buckets {
		t, err := suffixtree.BuildBucket(set, b, opt)
		if err != nil {
			return 0, 0, 0, err
		}
		gstBytes += t.Stats().ApproxBytes
	}
	sparseBytes, err = spgemm.IndexPeakBytes(set, buckets, spgemm.Options{K: psi})
	if err != nil {
		return 0, 0, 0, err
	}
	if sparseBytes > 0 {
		ratio = float64(gstBytes) / float64(sparseBytes)
	}
	return gstBytes, sparseBytes, ratio, nil
}
