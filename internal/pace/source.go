package pace

import (
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/spgemm"
	"profam/internal/suffixtree"
)

// pairSource is a worker's promising-pair stream: the spgemm multiply
// over the buckets the rank owns, converted to the wire type.
type pairSource struct {
	src *spgemm.Source
}

// next returns up to k pairs and whether the source is now exhausted.
func (s *pairSource) next(k int) ([]PairItem, bool) {
	ps, done := s.src.Next(k)
	out := make([]PairItem, len(ps))
	for i, p := range ps {
		out[i] = PairItem{A: p.SeqA, B: p.SeqB, OffA: p.OffA, OffB: p.OffB, Len: p.Len}
	}
	return out, done
}

// counts reports raw enumerated pairs and pairs suppressed by the
// NewFrom epoch filter, for the phase counters.
func (s *pairSource) counts() (raw, prior int64) {
	st := s.src.Stats()
	return st.Raw, st.Prior
}

// newPairSource wires the spgemm multiply over the buckets this rank
// owns into the phase. Each bucket's CSR build is recorded as a
// <phase>/index span and charged to the virtual clock (K residues
// examined per posting — the sort's comparison width) as the blocks
// stream, and the hooks feed the index observability series. Hooks fire
// inside next(), which always runs on the rank's own goroutine, so
// touching the rank clock and registry is safe.
func newPairSource(c *mpi.Comm, set *seq.Set, own []int, buckets []suffixtree.Bucket, cfg Config, phase string) (*pairSource, error) {
	l := func(n string) string { return metrics.Name(n, "phase", phase) }
	indexBytes := cfg.Metrics.Gauge(l("pace_index_bytes"))
	chars := cfg.Metrics.Counter(l("pace_index_chars"))
	blocks := cfg.Metrics.Counter(l("pace_spgemm_blocks"))
	accPeak := cfg.Metrics.Gauge(l("pace_spgemm_accum_entries"))
	opt := spgemm.Options{
		K:         cfg.Psi,
		PrefixLen: cfg.PrefixLen,
		BlockNNZ:  cfg.SparseBlockNNZ,
		NewFrom:   int32(cfg.NewFrom),
	}
	var buildStart float64
	hooks := spgemm.Hooks{
		OnBucketStart: func() { buildStart = cfg.Metrics.Now() },
		OnBucket: func(postings, rows int, footprint int64) {
			w := int64(postings) * int64(cfg.Psi)
			c.Advance(float64(w) * cfg.Costs.SecPerTreeChar)
			cfg.Metrics.RecordSpan(phase+"/index", buildStart, cfg.Metrics.Now())
			chars.Add(w)
			indexBytes.SetMax(float64(footprint))
		},
		OnBlock: func(entries int) {
			blocks.Inc()
			accPeak.SetMax(float64(entries))
		},
	}
	src, err := spgemm.NewSource(set, buckets, own, opt, hooks)
	if err != nil {
		return nil, err
	}
	return &pairSource{src: src}, nil
}
