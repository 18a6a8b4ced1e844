package profam_test

import (
	"fmt"
	"strings"
	"testing"

	"profam/internal/metrics"
)

// counterSum adds every counter whose name starts with prefix.
func counterSum(rep *metrics.Report, prefix string) int64 {
	var n int64
	for name, v := range rep.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// TestCascadeDeterminism: under the simulator at 1 and 4 ranks, the
// pipeline must reproduce the families, keep mask and components the
// full-DP predicates produced (integrationDigest), and every aligned
// pair of RR and CCD must have been decided by a cascade stage on an
// attributed kernel. Per-pair verdict equality with the full-DP and
// scalar-kernel references is TestCascadeVerdictsMatchReference in
// internal/pace; this is its end-to-end counterpart.
func TestCascadeDeterminism(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks=%d", p), func(t *testing.T) {
			res := integrationRun(t, p, 1)
			if d := resultDigest(res); d != integrationDigest {
				t.Fatalf("result digest %s, want the full-DP reference %s", d, integrationDigest)
			}
			for _, phase := range []string{"rr", "ccd"} {
				aligned := res.Metrics.CounterValue("pace_pairs_aligned{phase=" + phase + "}")
				staged := counterSum(res.Metrics, "pace_cascade_pairs{phase="+phase+",")
				kernels := counterSum(res.Metrics, "pace_kernel_pairs{phase="+phase+",")
				if aligned == 0 || staged != aligned || kernels != aligned {
					t.Errorf("%s: %d pairs aligned, %d attributed to a cascade stage, %d to a kernel",
						phase, aligned, staged, kernels)
				}
			}
		})
	}
}

// TestCascadeCellsReduction: on the integration corpus the cascade must
// eliminate at least 3× of the alignment DP cells, measured against
// pace_cascade_cells_full — what the full-matrix predicates would have
// computed for the same pairs. The numbers logged here are the ones
// quoted in CHANGES.md.
func TestCascadeCellsReduction(t *testing.T) {
	res := integrationRun(t, 1, 1)
	cells := res.RR.Cells + res.CCD.Cells
	full := counterSum(res.Metrics, "pace_cascade_cells_full{")
	if cells == 0 || full == 0 {
		t.Fatalf("no cells recorded: cascade=%d full=%d", cells, full)
	}
	ratio := float64(full) / float64(cells)
	t.Logf("pace_align_cells: full-matrix=%d cascade=%d (%.1fx reduction)", full, cells, ratio)
	if ratio < 3 {
		t.Errorf("cascade eliminates only %.2fx of DP cells, want >= 3x", ratio)
	}
}

// TestKernelDeterminism: with the word-parallel kernels deciding part of
// the pairs, the pipeline must reproduce the families, keep mask and
// components the int32 scalar kernels produced (integrationDigest),
// across rank and thread counts. Per-pair verdict equality with the
// scalar kernels is TestCascadeVerdictsMatchReference in internal/pace.
func TestKernelDeterminism(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", p, threads), func(t *testing.T) {
				res := integrationRun(t, p, threads)
				if d := resultDigest(res); d != integrationDigest {
					t.Fatalf("result digest %s, want the scalar-kernel reference %s", d, integrationDigest)
				}
				if res.Metrics.CounterValue("pace_kernel_pairs{phase=rr,kernel=bitvec}") == 0 {
					t.Error("the bit-parallel kernel decided no RR pair")
				}
			})
		}
	}
}
