package pace

import (
	"testing"

	"profam/internal/align"
	"profam/internal/pool"
	"profam/internal/workload"
)

// TestCascadeVerdictsMatchReference: for every promising pair of the
// integration corpus, the workers' cascade verdicts (word-parallel
// kernels, shared profiles) equal the same cascade on the int32 scalar
// reference kernels and the full-DP Contains/Overlaps predicates, at the
// pipeline's default thresholds.
func TestCascadeVerdictsMatchReference(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 5, MeanFamilySize: 12, MeanLength: 110,
		Divergence: 0.09, IndelRate: 0.004, Subfamilies: 2,
		ContainedFrac: 0.2, Singletons: 5, Seed: 2024,
	})
	cfg := Config{Psi: 6}.withDefaults()
	pairs, _ := phasePairs(t, set, cfg, 1024)
	if len(pairs) == 0 {
		t.Fatal("no promising pairs")
	}

	profs := pool.NewProfileCache(cfg.Scoring).NewSet()
	defer profs.Release()
	auto := align.NewAligner(cfg.Scoring)
	scalar := align.NewAligner(cfg.Scoring)
	scalar.Kernels = align.KernelScalar
	exact := align.NewAligner(cfg.Scoring)
	rr, cc := rrWorker{params: cfg.Contain}, ccWorker{params: cfg.Overlap}

	var contained, overlapping int
	for _, p := range pairs {
		a, b := set.Get(int(p.A)).Res, set.Get(int(p.B)).Res

		got := rr.alignPair(auto, profs, set, p)
		ref := rr.alignPair(scalar, nil, set, p)
		ok, which := exact.EitherContained(a, b, cfg.Contain)
		if got.OK != ok || ref.OK != ok || (ok && (int(got.Which) != which || int(ref.Which) != which)) {
			t.Fatalf("pair (%d,%d) containment: cascade %v/%d, scalar %v/%d, full DP %v/%d",
				p.A, p.B, got.OK, got.Which, ref.OK, ref.Which, ok, which)
		}
		if ok {
			contained++
		}

		gotC := cc.alignPair(auto, profs, set, p)
		refC := cc.alignPair(scalar, nil, set, p)
		okC, _ := exact.Overlaps(a, b, cfg.Overlap)
		if gotC.OK != okC || refC.OK != okC {
			t.Fatalf("pair (%d,%d) overlap: cascade %v, scalar %v, full DP %v",
				p.A, p.B, gotC.OK, refC.OK, okC)
		}
		if okC {
			overlapping++
		}
	}
	if contained == 0 || overlapping == 0 || overlapping == len(pairs) {
		t.Fatalf("degenerate corpus: %d pairs, %d contained, %d overlapping", len(pairs), contained, overlapping)
	}
	t.Logf("%d pairs: %d contained, %d overlapping; full-DP cells %d vs cascade %d",
		len(pairs), contained, overlapping, exact.Cells, auto.Cells)
}
