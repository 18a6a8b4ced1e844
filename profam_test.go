package profam

import (
	"strings"
	"testing"

	"profam/internal/quality"
	"profam/internal/seq"
	"profam/internal/workload"
)

func testSet(t *testing.T) ([]string, []string, *workload.Truth) {
	t.Helper()
	set, truth := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 110,
		Divergence: 0.08, IndelRate: 0.004, ContainedFrac: 0.2,
		Singletons: 4, Seed: 55,
	})
	names := make([]string, set.Len())
	seqs := make([]string, set.Len())
	for i, s := range set.Seqs {
		names[i] = s.Name
		seqs[i] = string(s.Res)
	}
	return names, seqs, truth
}

func TestRunEndToEnd(t *testing.T) {
	names, seqs, truth := testSet(t)
	cfg := Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	res, err := RunParallel(1, names, seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInput != len(seqs) {
		t.Errorf("NumInput = %d, want %d", res.NumInput, len(seqs))
	}
	if res.NumNonRedundant >= res.NumInput {
		t.Error("redundancy removal removed nothing (fragments planted)")
	}
	if len(res.Components) == 0 || len(res.Families) == 0 {
		t.Fatalf("pipeline found %d components, %d families", len(res.Components), len(res.Families))
	}
	// Families must be disjoint, sorted largest-first, with sane stats.
	seen := map[int]bool{}
	last := 1 << 30
	for _, f := range res.Families {
		if f.Size() > last {
			t.Error("families not sorted by size")
		}
		last = f.Size()
		if f.Size() < 3 {
			t.Errorf("family below MinFamilySize: %d", f.Size())
		}
		if f.Density < 0 || f.Density > 1.0001 {
			t.Errorf("density out of range: %v", f.Density)
		}
		for _, id := range f.Members {
			if seen[id] {
				t.Fatalf("sequence %d in two families", id)
			}
			seen[id] = true
			if !res.Keep[id] {
				t.Errorf("redundant sequence %d in a family", id)
			}
		}
	}
	// Quality against planted truth: precision should be high.
	conf, err := quality.Compare(res.FamilyLabels(), truth.Label)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Precision() < 0.9 {
		t.Errorf("precision %.2f too low (%s)", conf.Precision(), conf)
	}
	if conf.Sensitivity() < 0.3 {
		t.Errorf("sensitivity %.2f too low (%s)", conf.Sensitivity(), conf)
	}
	if res.RR.PairsGenerated == 0 || res.CCD.PairsGenerated == 0 {
		t.Error("phase stats empty")
	}
	if !strings.Contains(res.Summary(), "#input=") {
		t.Errorf("summary malformed: %s", res.Summary())
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	names, seqs, _ := testSet(t)
	cfg := Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, BatchPairs: 256, BatchTasks: 64}
	serial, err := RunParallel(1, names, seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(4, names, seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumNonRedundant != par.NumNonRedundant {
		t.Errorf("NR differs: %d vs %d", serial.NumNonRedundant, par.NumNonRedundant)
	}
	if len(serial.Components) != len(par.Components) {
		t.Errorf("component count differs: %d vs %d", len(serial.Components), len(par.Components))
	}
	if len(serial.Families) != len(par.Families) {
		t.Fatalf("family count differs: %d vs %d", len(serial.Families), len(par.Families))
	}
	for i := range serial.Families {
		a, b := serial.Families[i], par.Families[i]
		if a.Size() != b.Size() {
			t.Errorf("family %d size differs: %d vs %d", i, a.Size(), b.Size())
			continue
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				t.Errorf("family %d member %d differs", i, j)
				break
			}
		}
	}
}

func TestRunSimulatedScales(t *testing.T) {
	names, seqs, _ := testSet(t)
	cfg := Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, BatchPairs: 512, BatchTasks: 64}
	set, err := setFromStrings(names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	res4, t4, err := RunSet(set, 4, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res16, t16, err := RunSet(set, 16, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= t4 {
		t.Errorf("no simulated speedup: T(4)=%.2f T(16)=%.2f", t4, t16)
	}
	if len(res4.Families) != len(res16.Families) {
		t.Errorf("family count changed with rank count: %d vs %d", len(res4.Families), len(res16.Families))
	}
	if res4.RR.Time <= 0 || res4.CCD.Time <= 0 {
		t.Errorf("phase times not recorded: %+v %+v", res4.RR, res4.CCD)
	}
}

func TestRunFASTA(t *testing.T) {
	fasta := ">a\nMKWVTFISLLFLFSSAYSRGVFRR\n>b\nMKWVTFISLLFLFSSAYSRGVFRR\n>c\nPPPPGGGGYYYYHHHHKKKK\n"
	set, err := seq.ReadFASTA(strings.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunSet(set, 1, false, Config{Psi: 6, MinComponentSize: 2, MinFamilySize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInput != 3 {
		t.Errorf("NumInput = %d", res.NumInput)
	}
	// b is identical to a: redundancy removal should drop one.
	if res.NumNonRedundant != 2 {
		t.Errorf("NumNonRedundant = %d, want 2", res.NumNonRedundant)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunParallel(1, []string{"a"}, []string{"SEQ", "SEQ2"}, Config{}); err == nil {
		t.Error("mismatched names/seqs accepted")
	}
	if _, err := RunParallel(1, nil, []string{"NOT VALID!"}, Config{}); err == nil {
		t.Error("invalid residues accepted")
	}
}

func TestDomainBasedReduction(t *testing.T) {
	set, truth := workload.Generate(workload.Params{
		Families: 1, MeanFamilySize: 4, DomainFamilies: 2, DomainSize: 8,
		Singletons: 2, Seed: 71,
	})
	names := make([]string, set.Len())
	seqs := make([]string, set.Len())
	for i, s := range set.Seqs {
		names[i], seqs[i] = s.Name, string(s.Res)
	}
	// Domain members share words but little global similarity, so use a
	// generous overlap for CCD and the domain reduction for families.
	cfg := Config{
		Psi: 6, Reduction: DomainBased, W: 10,
		OverlapSimilarity: 0.2, OverlapCoverage: 0.2,
		MinComponentSize: 3, MinFamilySize: 3,
	}
	res, err := RunParallel(1, names, seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) == 0 {
		t.Fatal("domain-based reduction found no families")
	}
	// Each family should be dominated by one planted domain family.
	for _, f := range res.Families {
		counts := map[int]int{}
		for _, id := range f.Members {
			counts[truth.Label[id]]++
		}
		best, total := 0, 0
		for _, c := range counts {
			total += c
			if c > best {
				best = c
			}
		}
		if best*10 < total*7 {
			t.Errorf("mixed domain family: %v", counts)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Psi != 8 || c.ContainIdentity != 0.95 || c.OverlapSimilarity != 0.30 ||
		c.S1 != 5 || c.C1 != 300 || c.Tau != 0.5 || c.MinFamilySize != 5 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.EdgeSimilarity != c.OverlapSimilarity {
		t.Error("EdgeSimilarity should default to OverlapSimilarity")
	}
}

func TestReductionString(t *testing.T) {
	if GlobalSimilarity.String() != "global-similarity" || DomainBased.String() != "domain-based" {
		t.Error("Reduction.String broken")
	}
}
