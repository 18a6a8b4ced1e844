package spgemm

import (
	"bytes"
	"math/rand"
	"testing"

	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// randomSet builds a corpus with planted shared motifs plus random
// background, so pair structure is non-trivial at small sizes.
func randomSet(t testing.TB, n int, seed int64) *seq.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	motifs := make([]string, 4)
	for m := range motifs {
		motifs[m] = randResidues(rng, 12+rng.Intn(8))
	}
	set := seq.NewSet()
	for i := 0; i < n; i++ {
		s := randResidues(rng, 40+rng.Intn(40))
		// Splice 0–2 motifs into the background.
		for _, m := range motifs {
			if rng.Intn(2) == 0 {
				at := rng.Intn(len(s))
				s = s[:at] + m + s[at:]
			}
		}
		set.MustAdd("", s)
	}
	return set
}

func randResidues(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = seq.Residues[rng.Intn(20)]
	}
	return string(b)
}

func allOwn(buckets []suffixtree.Bucket) []int {
	own := make([]int, len(buckets))
	for i := range own {
		own[i] = i
	}
	return own
}

// drain consumes a source to exhaustion in small chunks, exercising the
// batch boundary logic.
func drain(t *testing.T, s *Source) []suffixtree.Pair {
	t.Helper()
	var out []suffixtree.Pair
	for {
		ps, done := s.Next(7)
		out = append(out, ps...)
		if done {
			return out
		}
	}
}

func pairSet(ps []suffixtree.Pair) map[int64]bool {
	m := make(map[int64]bool, len(ps))
	for _, p := range ps {
		m[pairKey(p.SeqA, p.SeqB)] = true
	}
	return m
}

// gstPairSet is the reference: the deduplicated maximal-match pair set
// of the generalized suffix tree.
func gstPairSet(t *testing.T, set *seq.Set, k, pl int) map[int64]bool {
	t.Helper()
	trees, err := suffixtree.Build(set, suffixtree.Options{MinMatch: k, PrefixLen: pl})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]bool)
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		out[pairKey(p.SeqA, p.SeqB)] = true
		return true
	})
	return out
}

func newTestSource(t *testing.T, set *seq.Set, opt Options) *Source {
	t.Helper()
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: opt.K, PrefixLen: opt.PrefixLen})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(set, buckets, allOwn(buckets), opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestPairSetMatchesGST is the backend-equivalence core: with the
// default thresholds, the candidate pair set of the sparse multiply
// equals the GST maximal-match pair set ("shares a ψ-mer" ⟺ "shares a
// maximal match ≥ ψ").
func TestPairSetMatchesGST(t *testing.T) {
	for _, n := range []int{5, 20, 60} {
		set := randomSet(t, n, int64(100+n))
		for _, k := range []int{4, 6, 8} {
			opt := Options{K: k, PrefixLen: 2}
			got := pairSet(drain(t, newTestSource(t, set, opt)))
			want := gstPairSet(t, set, k, 2)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: sparse emitted %d pairs, GST %d", n, k, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("n=%d k=%d: GST pair %d missing from sparse set", n, k, key)
				}
			}
		}
	}
}

// checkSeed asserts that a pair's seed is a genuine shared occurrence,
// at least K long, and maximal on both ends.
func checkSeed(t *testing.T, set *seq.Set, p suffixtree.Pair, k int) {
	t.Helper()
	if p.SeqA >= p.SeqB {
		t.Fatalf("pair not ordered: %+v", p)
	}
	if p.Len < int32(k) {
		t.Fatalf("seed shorter than K: %+v", p)
	}
	ra, rb := set.Seqs[p.SeqA].Res, set.Seqs[p.SeqB].Res
	if p.OffA < 0 || int(p.OffA+p.Len) > len(ra) || p.OffB < 0 || int(p.OffB+p.Len) > len(rb) {
		t.Fatalf("seed out of bounds: %+v (lens %d, %d)", p, len(ra), len(rb))
	}
	if !bytes.Equal(ra[p.OffA:p.OffA+p.Len], rb[p.OffB:p.OffB+p.Len]) {
		t.Fatalf("seed residues differ: %+v", p)
	}
	if p.OffA > 0 && p.OffB > 0 && ra[p.OffA-1] == rb[p.OffB-1] {
		t.Fatalf("seed not left-maximal: %+v", p)
	}
	ea, eb := p.OffA+p.Len, p.OffB+p.Len
	if int(ea) < len(ra) && int(eb) < len(rb) && ra[ea] == rb[eb] {
		t.Fatalf("seed not right-maximal: %+v", p)
	}
}

func TestSeedsAreSharedMatches(t *testing.T) {
	set := randomSet(t, 40, 7)
	const k = 6
	for _, p := range drain(t, newTestSource(t, set, Options{K: k, PrefixLen: 2})) {
		checkSeed(t, set, p, k)
	}
}

// TestPartitionInvariance: splitting the buckets across "ranks" must
// not change the union pair set or the summed arithmetic counters —
// the property the rank-distributed backend relies on.
func TestPartitionInvariance(t *testing.T) {
	set := randomSet(t, 50, 11)
	opt := Options{K: 6, PrefixLen: 2}
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: opt.K, PrefixLen: opt.PrefixLen})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewSource(set, buckets, allOwn(buckets), opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	wholePairs := pairSet(drain(t, whole))
	wholeStats := whole.Stats()

	for _, parts := range []int{2, 3} {
		assign := suffixtree.AssignBuckets(buckets, parts)
		union := make(map[int64]bool)
		var raw, blocks int64
		for _, own := range assign {
			src, err := NewSource(set, buckets, own, opt, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			for key := range pairSet(drain(t, src)) {
				union[key] = true
			}
			st := src.Stats()
			raw += st.Raw
			blocks += st.Blocks
		}
		if raw != wholeStats.Raw {
			t.Fatalf("parts=%d: raw %d, whole %d", parts, raw, wholeStats.Raw)
		}
		if blocks != wholeStats.Blocks {
			t.Fatalf("parts=%d: blocks %d, whole %d", parts, blocks, wholeStats.Blocks)
		}
		if len(union) != len(wholePairs) {
			t.Fatalf("parts=%d: union %d pairs, whole %d", parts, len(union), len(wholePairs))
		}
		for key := range wholePairs {
			if !union[key] {
				t.Fatalf("parts=%d: pair %d missing from union", parts, key)
			}
		}
	}
}

// TestVolumeBoundedByMaximalMatches: with every bucket streamed by its
// own source (the worst case for local dedup), the pairs shipped in
// total stay within the suffix tree's maximal-match occurrence count —
// a pair crosses to the master once per maximal match, not once per
// shared k-mer.
func TestVolumeBoundedByMaximalMatches(t *testing.T) {
	set := randomSet(t, 50, 19)
	opt := Options{K: 6, PrefixLen: 2}
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: opt.K, PrefixLen: opt.PrefixLen})
	if err != nil {
		t.Fatal(err)
	}
	shipped := 0
	for i := range buckets {
		src, err := NewSource(set, buckets, []int{i}, opt, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		shipped += len(drain(t, src))
	}
	trees, err := suffixtree.Build(set, suffixtree.Options{MinMatch: opt.K, PrefixLen: opt.PrefixLen})
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	suffixtree.MergedPairs(trees, func(suffixtree.Pair) bool { matches++; return true })
	t.Logf("%d pairs shipped from %d single-bucket sources, %d maximal-match occurrences", shipped, len(buckets), matches)
	if shipped == 0 || shipped > matches {
		t.Fatalf("shipped %d pairs, want 1..%d", shipped, matches)
	}
}

// TestBlockSizeInvariance: the emitted pair set must not depend on the
// accumulator block bound (block boundaries only affect batching).
func TestBlockSizeInvariance(t *testing.T) {
	set := randomSet(t, 40, 13)
	ref := pairSet(drain(t, newTestSource(t, set, Options{K: 6, PrefixLen: 2})))
	for _, nnz := range []int{1, 7, 64, 1 << 20} {
		got := pairSet(drain(t, newTestSource(t, set, Options{K: 6, PrefixLen: 2, BlockNNZ: nnz})))
		if len(got) != len(ref) {
			t.Fatalf("BlockNNZ=%d: %d pairs, want %d", nnz, len(got), len(ref))
		}
		for key := range ref {
			if !got[key] {
				t.Fatalf("BlockNNZ=%d: pair %d missing", nnz, key)
			}
		}
	}
}

// TestNewFromFilter: with the epoch filter on, both-old pairs are
// suppressed and counted, and everything else matches a manual filter
// of the unfiltered set.
func TestNewFromFilter(t *testing.T) {
	set := randomSet(t, 50, 17)
	const newFrom = 30
	full := newTestSource(t, set, Options{K: 6, PrefixLen: 2})
	fullPairs := pairSet(drain(t, full))

	filt := newTestSource(t, set, Options{K: 6, PrefixLen: 2, NewFrom: newFrom})
	got := drain(t, filt)
	for _, p := range got {
		if p.SeqB < newFrom {
			t.Fatalf("both-old pair emitted: %+v", p)
		}
	}
	want := 0
	for key := range fullPairs {
		if int32(uint32(key)) >= newFrom { // SeqB is the low word
			want++
		}
	}
	if len(pairSet(got)) != want {
		t.Fatalf("filtered set has %d pairs, want %d", len(pairSet(got)), want)
	}
	st := filt.Stats()
	if st.Raw != full.Stats().Raw {
		t.Fatalf("raw changed under NewFrom: %d vs %d", st.Raw, full.Stats().Raw)
	}
	if st.Prior == 0 {
		t.Fatal("expected suppressed prior pairs")
	}
}

func TestIndexPeakBytes(t *testing.T) {
	set := randomSet(t, 50, 31)
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: 6, PrefixLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	peak, err := IndexPeakBytes(set, buckets, Options{K: 6, PrefixLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	var largest int64
	for _, b := range buckets {
		if fp := int64(len(b.Suffixes)) * 8; fp > largest {
			largest = fp
		}
	}
	if peak < largest {
		t.Fatalf("peak %d below largest bucket's posting bytes %d", peak, largest)
	}
	src, err := NewSource(set, buckets, allOwn(buckets), Options{K: 6, PrefixLen: 2}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, src)
	if got := src.Stats().PeakBytes; got != peak {
		t.Fatalf("streaming peak %d != measured peak %d", got, peak)
	}
}

func TestOptionValidation(t *testing.T) {
	set := randomSet(t, 5, 37)
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{K: 0},
		{K: 4, PrefixLen: 5},
		{K: 4, BlockNNZ: -1},
	} {
		if _, err := NewSource(set, buckets, nil, opt, Hooks{}); err == nil {
			t.Fatalf("options %+v accepted", opt)
		}
	}
}

// FuzzSeedValidity drives the seed invariants from arbitrary corpora:
// every emitted seed must be a real shared k-mer occurrence extended to
// a maximal match.
func FuzzSeedValidity(f *testing.F) {
	f.Add("ACDEFGHIKLMNPQRST", "CDEFGHIKLMNPQ", "GGGACDEFGHIKW")
	f.Add("AAAAAAAAAAAA", "AAAAAAAA", "AAAAAAAAAA")
	f.Add("MKVLATTLLLG", "MKVLATTQQQG", "WWMKVLATT")
	f.Fuzz(func(t *testing.T, s1, s2, s3 string) {
		set := seq.NewSet()
		for _, raw := range []string{s1, s2, s3} {
			if len(raw) < 8 {
				t.Skip()
			}
			// Map arbitrary bytes onto the residue alphabet.
			b := make([]byte, len(raw))
			for i := 0; i < len(raw); i++ {
				b[i] = seq.Residues[int(raw[i])%20]
			}
			set.MustAdd("", string(b))
		}
		const k = 5
		buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: k, PrefixLen: 2})
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(set, buckets, allOwn(buckets), Options{K: k, PrefixLen: 2}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		seenPairs := make(map[int64]bool)
		for {
			ps, done := src.Next(16)
			for _, p := range ps {
				checkSeed(t, set, p, k)
				key := pairKey(p.SeqA, p.SeqB)
				if seenPairs[key] {
					t.Fatalf("pair %d emitted twice", key)
				}
				seenPairs[key] = true
			}
			if done {
				break
			}
		}
		want := gstPairSet(t, set, k, 2)
		if len(seenPairs) != len(want) {
			t.Fatalf("sparse %d pairs, GST %d", len(seenPairs), len(want))
		}
	})
}
