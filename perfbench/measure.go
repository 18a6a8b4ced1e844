package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"profam"
	"profam/internal/seq"
	"profam/internal/server"
)

// queryRate is the open-loop lookup rate. At 1000/s a run of 20 s gives
// about 20,000 lookups, so p99 has some 200 samples beyond it.
const queryRate = 1000.0

// input is a parsed corpus, ready for the run calls.
type input struct {
	set         *seq.Set
	names, seqs []string
}

// setup parses the corpus reps times (and, for a waves workload, also
// brings a server up to ready) and returns the parsed input with the
// median set-up and parse times. Corpus generation is not timed.
func setup(s spec, c corpus, reps int, rec *recorder, parent int) (input, float64, float64, error) {
	var in input
	times := make([]float64, 0, reps)
	parse := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		set, err := seq.ReadFASTA(bytes.NewReader(c.fasta))
		if err != nil {
			return input{}, 0, 0, fmt.Errorf("parse corpus: %w", err)
		}
		t1 := time.Now()
		var srv *server.Server
		if s.Kind == "waves" {
			srv = server.New(server.Config{Pipeline: s.config(), Ranks: s.Ranks})
		}
		t2 := time.Now()
		times = append(times, t2.Sub(t0).Seconds())
		parse = append(parse, t1.Sub(t0).Seconds())
		if srv != nil {
			if err := srv.Shutdown(context.Background()); err != nil {
				return input{}, 0, 0, fmt.Errorf("server shutdown: %w", err)
			}
		}
		if i == 0 {
			rec.add("seq", "seq.ReadFASTA", parent, tidMain, rec.since(t0), rec.since(t1))
			if srv != nil {
				rec.add("server", "server.New", parent, tidMain, rec.since(t1), rec.since(t2))
			}
		}
		in.set = set
	}
	in.names = make([]string, in.set.Len())
	in.seqs = make([]string, in.set.Len())
	for i, sq := range in.set.Seqs {
		in.names[i] = sq.Name
		in.seqs[i] = string(sq.Res)
	}
	return in, median(times), median(parse), nil
}

// heapSampler tracks the peak Go heap from a goroutine of its own,
// reading the runtime's live-heap gauge (the bytes the latest GC cycle
// marked reachable; no stop-the-world) every 5 ms. The live heap
// is steadier than the total, which also counts garbage awaiting the
// next cycle and so swings with GC timing.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-h.stopc:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return float64(<-h.done) / (1 << 20)
}

// batchRun is one timed public run call over the whole corpus.
type batchRun struct {
	res     *profam.Result
	seconds float64
	heapMiB float64
	span    int
}

func runBatch(s spec, in input, rec *recorder, parent int) (batchRun, error) {
	hs := startHeapSampler()
	id := rec.begin("profam", "profam.RunParallel", parent, tidMain)
	t0 := time.Now()
	res, err := profam.RunParallel(s.Ranks, in.names, in.seqs, s.config())
	wall := time.Since(t0).Seconds()
	rec.end(id)
	peak := hs.stop()
	if err != nil {
		return batchRun{}, fmt.Errorf("profam.RunParallel: %w", err)
	}
	rec.addPhases(res.Metrics, id, rec.since(t0))
	return batchRun{res: res, seconds: wall, heapMiB: peak, span: id}, nil
}

// queryStats are the open-loop lookups of one session. Latency runs
// from when a lookup was due, so a stalled handler also delays the
// lookups queued behind it.
type queryStats struct {
	latency, late, handler []float64 // seconds
	attempted, failed      int64
}

// loadgen is the open-loop lookup client. From the first publish until
// finish, GET /v1/sequences/{name}/family requests fall due at
// queryRate against whichever server published last, for a name it has
// published, regardless of how earlier requests fared.
type loadgen struct {
	target atomic.Pointer[lgTarget]
	first  chan struct{}
	stop   chan struct{}
	done   chan queryStats
}

type lgTarget struct {
	h     http.Handler
	names []string
}

func startLoadgen(rec *recorder, parent int) *loadgen {
	g := &loadgen{first: make(chan struct{}), stop: make(chan struct{}), done: make(chan queryStats, 1)}
	go func() { g.done <- g.loop(rec, parent) }()
	return g
}

// publish points the lookups at h, for the names it has published.
func (g *loadgen) publish(h http.Handler, names []string) {
	if g.target.Swap(&lgTarget{h: h, names: names}) == nil {
		close(g.first)
	}
}

// finish stops the client and returns its lookups.
func (g *loadgen) finish() queryStats {
	close(g.stop)
	return <-g.done
}

func (g *loadgen) loop(rec *recorder, parent int) queryStats {
	var st queryStats
	select {
	case <-g.first:
	case <-g.stop:
		return st
	}
	rng := rand.New(rand.NewSource(1))
	interval := time.Duration(float64(time.Second) / queryRate)
	due := time.Now()
	for {
		select {
		case <-g.stop:
			return st
		default:
		}
		if d := time.Until(due); d > 0 {
			sleepPrecise(d)
		}
		t := g.target.Load()
		name := t.names[rng.Intn(len(t.names))]
		req := httptest.NewRequest(http.MethodGet, "/v1/sequences/"+url.PathEscape(name)+"/family", nil)
		w := httptest.NewRecorder()
		start := time.Now()
		t.h.ServeHTTP(w, req)
		end := time.Now()
		st.attempted++
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"sequence":"`+name+`"`)) {
			st.failed++
		}
		st.latency = append(st.latency, end.Sub(due).Seconds())
		st.late = append(st.late, start.Sub(due).Seconds())
		st.handler = append(st.handler, end.Sub(start).Seconds())
		rec.add("server", "GET /v1/sequences/{id}/family", parent, tidLoadgen, rec.since(start), rec.since(end))
		due = due.Add(interval)
	}
}

// servedPass is one profamd session: a closed-loop client submits the
// corpus wave by wave through server.Submit, each call returning once
// its epoch is published, and points the lookup client at it.
type servedPass struct {
	seconds     float64   // first submit to last publish
	publish     []float64 // per-wave submit-to-publish seconds
	snaps       []*server.Snapshot
	queueWaitMs float64
	heapMiB     float64
	submits     int64
	span        int
}

// serve runs one served pass on a new server and returns it still
// serving, so lookups continue while the next pass builds; the caller
// shuts it down.
func serve(s spec, in input, g *loadgen, rec *recorder, parent int) (servedPass, *server.Server, error) {
	srv := server.New(server.Config{Pipeline: s.config(), Ranks: s.Ranks})
	h := srv.Handler()
	var sp servedPass
	bounds := waveBounds(len(in.names), s.waves())
	hs := startHeapSampler()
	sp.span = rec.begin("perfbench", "ingest waves", parent, tidMain)
	t0 := time.Now()
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		id := rec.begin("server", fmt.Sprintf("server.Submit wave %d", w+1), sp.span, tidMain)
		ts := time.Now()
		sp.submits++
		if _, err := srv.Submit(context.Background(), in.names[lo:hi], in.seqs[lo:hi]); err != nil {
			hs.stop()
			return sp, srv, fmt.Errorf("submit wave %d: %w", w+1, err)
		}
		te := time.Now()
		rec.end(id)
		snap := srv.Snapshot()
		g.publish(h, in.names[:hi])
		sp.publish = append(sp.publish, te.Sub(ts).Seconds())
		sp.snaps = append(sp.snaps, snap)
		epochStart := te.Add(-time.Duration(snap.BuildSeconds * float64(time.Second)))
		eid := rec.add("profam", "profam.RunEpoch", id, tidMain, rec.since(epochStart), rec.since(te))
		rec.addPhases(snap.Res.Metrics, eid, rec.since(epochStart))
	}
	sp.seconds = time.Since(t0).Seconds()
	rec.end(sp.span)
	sp.heapMiB = hs.stop()
	if h, ok := srv.Registry().Snapshot().Histograms["server_queue_wait_us"]; ok {
		sp.queueWaitMs = h.Quantile(0.5) / 1000
	}
	return sp, srv, nil
}

// retire shuts a served pass's server down once lookups have moved on.
func retire(srv *server.Server) error {
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
