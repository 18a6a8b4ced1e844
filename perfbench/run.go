package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/quality"
	"profam/internal/server"
)

// setupReps is how often set-up runs per benchmark run; setup_s is the
// median, since one parse takes only milliseconds.
const setupReps = 41

func correlation(res *profam.Result, truth []int) (float64, error) {
	c, err := quality.Compare(res.FamilyLabels(), truth)
	return c.CorrelationCoefficient(), err
}

// coldRun is the untimed reference for a waves workload: one cold run
// over the union corpus in arrival order, whose families every served
// pass must reproduce byte for byte.
func coldRun(s spec, in input, t *tally) (string, error) {
	res, err := profam.RunParallel(s.Ranks, in.names, in.seqs, s.config())
	if err != nil {
		return "", fmt.Errorf("cold profam.RunParallel: %w", err)
	}
	t.op(true, "cold run")
	return ledger.FamiliesDigest(in.set, res)
}

// session is one measured stretch of a workload.
type session struct {
	runS    []float64 // run_s samples
	heapMiB []float64
	passes  []servedPass
	batches []batchRun
	queries queryStats
}

// runSession measures the workload until budget seconds have passed
// (at least one iteration). A batch workload alternates a single-wave
// served pass with a batch run, so both the run call and the service
// get several samples; a waves workload repeats whole served passes.
// One open-loop client looks families up throughout, against whichever
// server published last, so lookups run while runs and epochs build.
// Every output must match want, the families digest; an empty want
// adopts the first output's.
func runSession(s spec, in input, want string, budget float64, rec *recorder, parent int, t *tally) (session, string, error) {
	start := time.Now()
	var ss session
	g := startLoadgen(rec, parent)
	var live *server.Server
	err := func() error {
		for {
			sp, srv, err := serve(s, in, g, rec, parent)
			if rerr := retire(live); err == nil {
				err = rerr
			}
			live = srv
			t.attempted += sp.submits
			if err != nil {
				return err
			}
			final := sp.snaps[len(sp.snaps)-1]
			d, err := ledger.FamiliesDigest(final.Set, final.Res)
			if err != nil {
				return err
			}
			if want == "" {
				want = d
			}
			t.check(d == want, "served families differ from the cold run over the union corpus")
			ss.passes = append(ss.passes, sp)
			iter := sp.seconds
			if s.Kind == "batch" {
				br, err := runBatch(s, in, rec, parent)
				if err != nil {
					return err
				}
				if d, err = ledger.FamiliesDigest(in.set, br.res); err != nil {
					return err
				}
				t.op(d == want, "batch-run families differ from the served families")
				ss.batches = append(ss.batches, br)
				ss.runS = append(ss.runS, br.seconds)
				ss.heapMiB = append(ss.heapMiB, br.heapMiB)
				iter += br.seconds
			} else {
				ss.runS = append(ss.runS, sp.seconds)
				ss.heapMiB = append(ss.heapMiB, sp.heapMiB)
			}
			if time.Since(start).Seconds()+1.1*iter > budget {
				return nil
			}
		}
	}()
	ss.queries = g.finish()
	if rerr := retire(live); err == nil {
		err = rerr
	}
	t.attempted += ss.queries.attempted
	t.failed += ss.queries.failed
	if ss.queries.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d of %d family lookups\n", ss.queries.failed, ss.queries.attempted)
	}
	return ss, want, err
}

// measure is the untraced run: it reports every end-to-end metric.
func measure(s spec, seed int64, seconds float64) (result, error) {
	start := time.Now()
	c, err := makeCorpus(s, seed)
	if err != nil {
		return result{}, err
	}
	in, setupS, _, err := setup(s, c, setupReps, nil, -1)
	if err != nil {
		return result{}, err
	}
	var t tally
	want := ""
	if s.Kind == "waves" {
		if want, err = coldRun(s, in, &t); err != nil {
			return result{}, err
		}
	}
	ss, want, err := runSession(s, in, want, seconds-time.Since(start).Seconds(), nil, -1, &t)
	if err != nil {
		return result{}, err
	}
	if seed == s.ReferenceSeed && s.ReferenceDigest != "" {
		t.check(want == s.ReferenceDigest, "families differ from the reference digest "+s.ReferenceDigest+": got "+want)
	}
	final := ss.passes[0].snaps[len(ss.passes[0].snaps)-1]
	cc, err := correlation(final.Res, c.truth)
	if err != nil {
		return result{}, err
	}

	var publish, worst []float64
	for _, sp := range ss.passes {
		publish = append(publish, sp.publish...)
		worst = append(worst, maxOf(sp.publish))
	}
	runS := median(ss.runS)
	lat := ss.queries.latency
	r := t.result(map[string]metric{
		"run_s":               {runS, "s"},
		"seqs_per_s":          {float64(len(c.truth)) / runS, "seq/s"},
		"setup_s":             {setupS, "s"},
		"peak_heap_mib":       {maxOf(ss.heapMiB), "MiB"},
		"quality_cc":          {cc, "ratio"},
		"epoch_publish_p50_s": {median(publish), "s"},
		"epoch_publish_max_s": {median(worst), "s"},
		"query_p50_us":        {median(lat) * 1e6, "us"},
	})
	r.Metrics["success_rate"] = metric{1 - float64(t.failed)/float64(t.attempted), "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %d sequences; families digest %s; run_s samples %.3f; %d lookups; %.1f s\n",
		len(c.truth), want, ss.runS, len(lat), time.Since(start).Seconds())
	return r, nil
}

// traceRun makes one traced iteration of the workload, with spans
// around the calls into each layer, and replays the BGG+DSD work per
// component; an untraced session over the rest of the budget is the
// overhead base. It reports every per-layer metric.
func traceRun(s spec, seed int64, seconds float64, outDir string) (result, error) {
	start := time.Now()
	rec := newRecorder(fmt.Sprintf("%s/seed=%d", s.Name, seed))
	root := rec.begin("perfbench", fmt.Sprintf("%s seed %d", s.Name, seed), -1, tidMain)
	c, err := makeCorpus(s, seed)
	if err != nil {
		return result{}, err
	}
	in, _, parseS, err := setup(s, c, setupReps, rec, root)
	if err != nil {
		return result{}, err
	}
	var t tally
	want := ""
	if s.Kind == "waves" {
		if want, err = coldRun(s, in, &t); err != nil {
			return result{}, err
		}
	}
	traced, want, err := runSession(s, in, want, 0, rec, root, &t)
	if err != nil {
		return result{}, err
	}
	var runs []epochResult
	var jobs []job
	runS, runSpan := traced.runS[0], traced.passes[0].span
	if s.Kind == "batch" {
		br := traced.batches[0]
		runs = []epochResult{{br.res, in.set}}
		runSpan = br.span
		for _, comp := range br.res.Components {
			jobs = append(jobs, job{set: in.set, members: comp})
		}
	} else {
		for _, snap := range traced.passes[0].snaps {
			runs = append(runs, epochResult{snap.Res, snap.Set})
		}
		jobs = recomputed(runs)
	}
	rs, err := replay(jobs, s.Reduction, rec, root)
	if err != nil {
		return result{}, err
	}
	t.check(sameFamilies(rs.families, runs, s.Kind == "batch"), "replayed BGG+DSD families differ from the run's")
	rec.end(root)

	untraced, _, err := runSession(s, in, want, seconds-time.Since(start).Seconds(), nil, -1, &t)
	if err != nil {
		return result{}, err
	}
	m := layerMetrics(runs, rs, traced.passes[0], traced.queries, rec.selfTimes(runSpan), runS, parseS)
	base := median(untraced.runS)
	m["trace.run_s"] = metric{runS, "s"}
	m["trace.untraced_run_s"] = metric{base, "s"}
	m["trace.overhead_ratio"] = metric{runS / base, "ratio"}
	layer, share := dominant(m)
	fmt.Fprintf(os.Stderr, "perfbench: dominant layer %s at %.3f of run_s (predicted %s)\n", layer, share, s.PredictedDominant)
	if err := writeArtifacts(outDir, s, seed, rec, layer, share); err != nil {
		return result{}, err
	}
	return t.result(m), nil
}

// writeArtifacts writes the run's Chrome trace and the host facts it
// ran on.
func writeArtifacts(dir string, s spec, seed int64, rec *recorder, layer string, share float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", s.Name, seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	host, err := json.MarshalIndent(map[string]any{
		"workload": s.Name, "seed": seed, "request_id": rec.request,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"dominant_layer": layer, "dominant_share": share, "predicted_dominant_layer": s.PredictedDominant,
	}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s.trace.json\n", base)
	return os.WriteFile(base+".host.json", append(host, '\n'), 0o644)
}
