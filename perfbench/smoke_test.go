package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tiny shrinks a workload's generator so the whole benchmark runs in
// seconds, keeping its kind, reduction and rank shape.
func tiny(s spec) spec {
	switch {
	case s.Reduction == "domain":
		s.Corpus = []generator{{Families: 2, MeanSize: 6, UniformSizes: true, DomainFamilies: 3, Singletons: 5}}
	case s.Ranks > 1 || s.Kind == "waves":
		s.Corpus = []generator{
			{Families: 30, MeanSize: 2, UniformSizes: true, MeanLength: 120, Contained: 0.5, Singletons: 40},
			{Families: 2, MeanSize: 6, UniformSizes: true, MeanLength: 120, Singletons: 1},
		}
	default:
		s.Corpus = []generator{{Families: 6, MeanSize: 6, UniformSizes: true, Singletons: 6}}
	}
	return s
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) (endToEnd, perLayer []benchMetric, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return doc.EndToEnd, doc.PerLayer, workloads
}

// assertMetrics checks that r reports exactly the listed metrics, each
// with its unit.
func assertMetrics(t *testing.T, r result, want []benchMetric) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer, names := loadBenchmark(t)
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(names) {
		t.Fatalf("workloads.json has %d workloads, BENCHMARK.json %d", len(specs), len(names))
	}
	for i, s := range specs {
		if s.Name != names[i] {
			t.Fatalf("workload %d is %q in workloads.json but %q in BENCHMARK.json", i, s.Name, names[i])
		}
		s := tiny(s)
		t.Run(s.Name, func(t *testing.T) {
			r, err := measure(s, 3, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			assertMetrics(t, r, endToEnd)

			r, err = traceRun(s, 3, 0.1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			assertMetrics(t, r, perLayer)
		})
	}
}

// TestReferenceDigestChecked shows the output check fails the run when
// the families differ from the recorded reference digest.
func TestReferenceDigestChecked(t *testing.T) {
	s, err := findSpec("global-families")
	if err != nil {
		t.Fatal(err)
	}
	s = tiny(s)
	s.ReferenceDigest = "not-a-digest"
	r, err := measure(s, s.ReferenceSeed, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Fatalf("wrong reference digest went unnoticed: correct=%v failed=%d", r.Correct, r.Failed)
	}
	if got := r.Metrics["success_rate"].Value; got >= 1 {
		t.Fatalf("success_rate = %v after a failed check", got)
	}
}
