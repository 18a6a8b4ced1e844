package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"profam/internal/metrics"
)

// Thread ids of the Chrome trace: the closed-loop caller, the open-loop
// query generator, and one lane per extra pipeline rank.
const (
	tidMain    = 0
	tidLoadgen = 1
	tidRank0   = 10
)

// span is one interval recorded around a call into a layer. Times are
// seconds since the recorder's origin.
type span struct {
	id, parent int // parent is -1 for a root
	layer      string
	name       string
	tid        int
	start, end float64
}

// recorder keeps one workload run's spans in memory until it is
// written out. A nil *recorder records nothing, so the untraced run
// calls the same code.
type recorder struct {
	origin  time.Time
	request string

	mu    sync.Mutex
	spans []span
}

func newRecorder(request string) *recorder {
	return &recorder{origin: time.Now(), request: request}
}

func (r *recorder) since(t time.Time) float64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.origin).Seconds()
}

// add records a finished span and returns its id (-1 when r is nil).
func (r *recorder) add(layer, name string, parent, tid int, start, end float64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id: id, parent: parent, layer: layer, name: name, tid: tid, start: start, end: end})
	return id
}

// begin opens a span that end closes.
func (r *recorder) begin(layer, name string, parent, tid int) int {
	if r == nil {
		return -1
	}
	t := r.since(time.Now())
	return r.add(layer, name, parent, tid, t, t)
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.since(time.Now())
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// phaseLayer maps a pipeline phase span name to the layer that does its
// work: the program brackets RR and CCD (with their index and exchange
// stages) itself and apportions the fused BGG+DSD section by modeled work.
func phaseLayer(name string) string {
	switch {
	case name == "bgg":
		return "bipartite"
	case name == "dsd":
		return "shingle"
	case name == "rr" || name == "ccd" || strings.HasPrefix(name, "rr/") || strings.HasPrefix(name, "ccd/"):
		return "pace"
	}
	return "profam"
}

// addPhases places the phase spans a run exported in its metrics report
// under the span of the call that ran it. Span clocks count seconds
// from the start of the job, which is taken as the call's start. Rank 0
// shares the caller's lane; other ranks get lanes of their own.
func (r *recorder) addPhases(rep *metrics.Report, parent int, callStart float64) {
	if r == nil || rep == nil {
		return
	}
	for _, snap := range rep.Ranks {
		tid := tidMain
		if snap.Rank > 0 {
			tid = tidRank0 + snap.Rank
		}
		open := map[string]int{}
		for _, sp := range snap.Spans {
			p := parent
			if i := strings.IndexByte(sp.Name, '/'); i > 0 {
				if id, ok := open[sp.Name[:i]]; ok {
					p = id
				}
			}
			id := r.add(phaseLayer(sp.Name), sp.Name, p, tid, callStart+sp.Start, callStart+sp.End)
			open[sp.Name] = id
		}
	}
}

// subtree returns root and its descendants on root's lane.
func (r *recorder) subtree(root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range r.spans { // parents are always recorded before children
		if s.id == root || (in[s.parent] && s.tid == r.spans[root].tid) {
			in[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per layer, the time each span in root's subtree spent
// outside its direct children.
func (r *recorder) selfTimes(root int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	tree := r.subtree(root)
	kids := map[int][][2]float64{}
	for _, s := range tree {
		if s.id != root {
			kids[s.parent] = append(kids[s.parent], [2]float64{s.start, s.end})
		}
	}
	self := map[string]float64{}
	for _, s := range tree {
		self[s.layer] += (s.end - s.start) - covered(kids[s.id], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, at := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], at), min(x[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing load. Every event carries the run's
// request id and its parent span id.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[int]string{tidMain: "caller", tidLoadgen: "query generator"}
	events := []event{}
	for _, s := range r.spans {
		if _, ok := lanes[s.tid]; !ok {
			lanes[s.tid] = "rank " + strconv.Itoa(s.tid-tidRank0)
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: s.start * 1e6, Dur: (s.end - s.start) * 1e6,
			Args: map[string]any{"request_id": r.request, "span_id": s.id, "parent_id": s.parent},
		})
	}
	for tid, name := range lanes {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
