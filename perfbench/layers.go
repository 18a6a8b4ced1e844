package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"profam"
	"profam/internal/bipartite"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/shingle"
)

// job is one component whose bipartite graph and dense subgraphs a run
// recomputed, with the set its member IDs refer to.
type job struct {
	set     *seq.Set
	members []int
}

// replayStats are the busy times of the bipartite and shingle layers,
// measured around their public calls on the components a run computed.
// The pipeline fuses both layers into one per-component job and only
// apportions their time by modeled work, so the replay is what measures
// them apart.
type replayStats struct {
	buildS, buildMax   float64
	detectS, detectMax float64
	candidates         int64
	reported           int64
	families           [][]int
}

// replay rebuilds each job's graph and detects its dense subgraphs with
// the parameters profam.Config's defaults resolve to, so its families
// must equal the run's.
func replay(jobs []job, reduction string, rec *recorder, parent int) (replayStats, error) {
	var rs replayStats
	bcfg := bipartite.Config{}
	sp := shingle.Params{MinSize: 5, Seed: 20081117}
	id := rec.begin("perfbench", "replay BGG+DSD", parent, tidMain)
	defer rec.end(id)
	for _, j := range jobs {
		t0 := time.Now()
		var g *bipartite.Graph
		var err error
		name := "bipartite.BuildBd"
		if reduction == "domain" {
			name = "bipartite.BuildBm"
			g, _, err = bipartite.BuildBm(j.set, j.members, bcfg)
		} else {
			g, _, err = bipartite.BuildBd(j.set, j.members, bcfg)
		}
		if err != nil {
			return rs, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		subs, st := shingle.Detect(g, sp)
		t2 := time.Now()
		rec.add("bipartite", name, id, tidMain, rec.since(t0), rec.since(t1))
		rec.add("shingle", "shingle.Detect", id, tidMain, rec.since(t1), rec.since(t2))
		b, d := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		rs.buildS += b
		rs.detectS += d
		rs.buildMax = max(rs.buildMax, b)
		rs.detectMax = max(rs.detectMax, d)
		rs.candidates += int64(st.Candidates)
		rs.reported += int64(st.Reported)
		for _, ds := range subs {
			m := make([]int, len(ds.Members))
			for i, v := range ds.Members {
				m[i] = int(v)
			}
			rs.families = append(rs.families, m)
		}
	}
	return rs, nil
}

// recomputed lists, per epoch, the components whose membership differs
// from every component of the epoch before: those are the ones the
// family cache misses and the epoch recomputes.
func recomputed(snaps []epochResult) []job {
	var jobs []job
	seen := map[string]bool{}
	for _, e := range snaps {
		next := map[string]bool{}
		for _, c := range e.res.Components {
			key := fmt.Sprint(c)
			next[key] = true
			if !seen[key] {
				jobs = append(jobs, job{set: e.set, members: c})
			}
		}
		seen = next
	}
	return jobs
}

// epochResult is one run's output with the set its IDs refer to: a
// batch run, or one published epoch of a served pass.
type epochResult struct {
	res *profam.Result
	set *seq.Set
}

// sameFamilies reports whether every replayed family is one of the
// run's families and, when exact, whether the two lists are equal as
// sets.
func sameFamilies(replayed [][]int, runs []epochResult, exact bool) bool {
	have := map[string]bool{}
	n := 0
	for _, e := range runs {
		for _, f := range e.res.Families {
			have[fmt.Sprint(f.Members)] = true
			n++
		}
	}
	for _, f := range replayed {
		m := slices.Clone(f)
		slices.Sort(m)
		if !have[fmt.Sprint(m)] {
			return false
		}
	}
	return !exact || len(replayed) == n
}

// counterSum adds every counter whose name starts with prefix, over all
// reports.
func counterSum(reps []*metrics.Report, prefix string) int64 {
	var n int64
	for _, r := range reps {
		for name, v := range r.Counters {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
	}
	return n
}

// phaseSum adds a phase's critical-path seconds over all reports.
func phaseSum(reps []*metrics.Report, phase string) float64 {
	var s float64
	for _, r := range reps {
		for _, p := range r.Phases {
			if p.Name == phase {
				s += p.MaxSeconds
			}
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced run from the
// runs' exported counters and phase timings, the replay's busy times,
// the served pass and the span tree of the run.
func layerMetrics(runs []epochResult, rs replayStats, sp servedPass, q queryStats, self map[string]float64, runS, parseS float64) map[string]metric {
	reps := make([]*metrics.Report, len(runs))
	var rr, ccd profam.PhaseStats
	for i, e := range runs {
		reps[i] = e.res.Metrics
		rr = addStats(rr, e.res.RR)
		ccd = addStats(ccd, e.res.CCD)
	}
	var cached, comps int64
	var rrAligned, build float64
	for _, snap := range sp.snaps {
		cached += snap.Res.Metrics.CounterValue("pipeline_components_cached")
		comps += int64(len(snap.Res.Components))
		rrAligned += float64(snap.Res.RR.PairsAligned)
		build += snap.BuildSeconds
	}
	corpus := sp.snaps[len(sp.snaps)-1].Set.Len()
	early := counterSum(reps, "pace_cascade_pairs{phase=rr,") - counterSum(reps, "pace_cascade_pairs{phase=rr,stage=full}")
	bggCells := counterSum(reps, "bgg_align_cells{")
	m := map[string]metric{
		"seq.parse_s": {parseS, "s"},

		"pace.rr_s":                {phaseSum(reps, "rr"), "s"},
		"pace.ccd_s":               {phaseSum(reps, "ccd"), "s"},
		"pace.rr_index_s":          {phaseSum(reps, "rr/index"), "s"},
		"pace.ccd_index_s":         {phaseSum(reps, "ccd/index"), "s"},
		"pace.rr_exchange_s":       {phaseSum(reps, "rr/exchange"), "s"},
		"pace.ccd_exchange_s":      {phaseSum(reps, "ccd/exchange"), "s"},
		"pace.pairs_raw":           {float64(rr.PairsRaw + ccd.PairsRaw), "count"},
		"pace.index_chars":         {float64(counterSum(reps, "pace_index_chars{")), "count"},
		"pace.rr_pairs_generated":  {float64(rr.PairsGenerated), "count"},
		"pace.rr_pairs_aligned":    {float64(rr.PairsAligned), "count"},
		"pace.ccd_pairs_generated": {float64(ccd.PairsGenerated), "count"},
		"pace.ccd_pairs_aligned":   {float64(ccd.PairsAligned), "count"},
		"pace.rounds":              {float64(counterSum(reps, "pace_rounds{")), "count"},
		"pace.rr_positive_ratio":   {ratio(float64(rr.PairsPositive), float64(rr.PairsAligned)), "ratio"},
		"pace.ccd_closure_ratio":   {ratio(float64(ccd.PairsClosure), float64(ccd.PairsGenerated)), "ratio"},

		"align.rr_cells":               {float64(rr.Cells), "count"},
		"align.ccd_cells":              {float64(ccd.Cells), "count"},
		"align.bgg_cells":              {float64(bggCells), "count"},
		"align.bgg_cells_per_s":        {ratio(float64(bggCells), rs.buildS), "1/s"},
		"align.rr_early_decided_ratio": {ratio(float64(early), float64(rr.PairsAligned)), "ratio"},

		"bipartite.build_s":         {rs.buildS, "s"},
		"bipartite.max_component_s": {rs.buildMax, "s"},
		"bipartite.pairs_aligned":   {float64(counterSum(reps, "bgg_pairs_aligned{")), "count"},
		"bipartite.words":           {float64(counterSum(reps, "bgg_words{")), "count"},

		"shingle.detect_s":               {rs.detectS, "s"},
		"shingle.max_component_s":        {rs.detectMax, "s"},
		"shingle.work_ops":               {float64(counterSum(reps, "dsd_work_ops")), "count"},
		"shingle.shingles_pass1":         {float64(counterSum(reps, "dsd_shingles_pass1")), "count"},
		"shingle.shingles_pass2":         {float64(counterSum(reps, "dsd_shingles_pass2")), "count"},
		"shingle.candidates":             {float64(counterSum(reps, "dsd_candidates")), "count"},
		"shingle.reported_ratio":         {ratio(float64(rs.reported), float64(rs.candidates)), "ratio"},
		"mpi.msgs_sent":                  {float64(counterSum(reps, "mpi_msgs_sent{")), "count"},
		"mpi.bytes_sent":                 {float64(counterSum(reps, "mpi_bytes_sent{")), "bytes"},
		"server.epoch_build_s":           {build, "s"},
		"server.queue_wait_ms":           {sp.queueWaitMs, "ms"},
		"server.components_cached_ratio": {ratio(float64(cached), float64(comps)), "ratio"},
		"server.rr_aligned_per_new_seq":  {ratio(rrAligned, float64(corpus)), "pairs/seq"},
		"server.query_handler_us":        {median(q.handler) * 1e6, "us"},
		"server.query_p99_us":            {quantile(q.latency, 0.99) * 1e6, "us"},
		"loadgen.late_p99_ms":            {quantile(q.late, 0.99) * 1e3, "ms"},

		"pace.busy_share":       {ratio(phaseSum(reps, "rr")+phaseSum(reps, "ccd"), runS), "ratio"},
		"bipartite.build_share": {ratio(rs.buildS, runS), "ratio"},
		"shingle.detect_share":  {ratio(rs.detectS, runS), "ratio"},
		"seq.share":             {ratio(parseS, runS), "ratio"},
	}
	for _, layer := range []string{"profam", "pace", "bipartite", "shingle", "server"} {
		m[layer+".self_s"] = metric{self[layer], "s"}
		m[layer+".share"] = metric{ratio(self[layer], runS), "ratio"}
	}
	return m
}

func addStats(a, b profam.PhaseStats) profam.PhaseStats {
	a.PairsRaw += b.PairsRaw
	a.PairsGenerated += b.PairsGenerated
	a.PairsDuplicate += b.PairsDuplicate
	a.PairsClosure += b.PairsClosure
	a.PairsAligned += b.PairsAligned
	a.PairsPositive += b.PairsPositive
	a.Cells += b.Cells
	a.Time += b.Time
	return a
}

// dominant names the layer with the largest busy share of the run: the
// pace phases (RR+CCD), BGG graph builds, or shingle detection.
func dominant(m map[string]metric) (string, float64) {
	best, share := "", -1.0
	for _, c := range []struct{ layer, key string }{
		{"pace", "pace.busy_share"}, {"bipartite", "bipartite.build_share"}, {"shingle", "shingle.detect_share"},
	} {
		if v := m[c.key].Value; v > share {
			best, share = c.layer, v
		}
	}
	return best, share
}
