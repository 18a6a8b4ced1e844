package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"profam"
	"profam/internal/seq"
	"profam/internal/workload"
)

// workloadsJSON holds every workload's generator parameters, execution
// shape, reference seed and families digest, and the layer each one is
// predicted to stress, next to the share the traced run observed.
//
//go:embed workloads.json
var workloadsJSON []byte

// generator mirrors the workload.Params fields the benchmark sets; the
// rest keep workload.Generate's defaults. Three choices keep the cost
// and size of a corpus nearly the same from seed to seed, so a run's
// time reflects the program and not the draw: UniformSizes pins every
// family to MeanSize members (geometric sizes make the quadratic BGG
// cost swing by 30–50 %), the corpus keeps a fixed number of families
// of a narrow size band, and TotalSeqs tops the corpus up with
// singletons to a fixed size, so sequences per second divides a fixed
// count by a steady time. Families and DomainFamilies are how many
// families of each kind the generator draws; see selected for which of
// them the corpus keeps. Domain families need DomainSize well above the
// default 12: their members share domains, not whole sequences, and
// smaller families link up only partly, so their B_m work swings with
// the draw whatever their shared words.
type generator struct {
	Families       int     `json:"families"`
	MeanSize       int     `json:"mean_size"`
	MeanLength     int     `json:"mean_length,omitempty"`
	Contained      float64 `json:"contained,omitempty"`
	Singletons     int     `json:"singletons"`
	DomainFamilies int     `json:"domain_families,omitempty"`
	DomainSize     int     `json:"domain_size,omitempty"`
	UniformSizes   bool    `json:"uniform_sizes,omitempty"`
	FamilyKeep     int     `json:"family_keep,omitempty"`
	FamilyResidues [2]int  `json:"family_residues,omitempty"`
	DomainKeep     int     `json:"domain_keep,omitempty"`
	DomainWords    [2]int  `json:"domain_words,omitempty"`
	TotalSeqs      int     `json:"total_seqs,omitempty"`
}

// wordLen is profam's default B_m word length.
const wordLen = 10

// selected returns the IDs the corpus keeps. Families are taken whole,
// in generation order: with FamilyKeep set, the first FamilyKeep global
// families whose residues lie within FamilyResidues, and with
// DomainKeep set, the first DomainKeep domain families whose shared
// words (distinct words found in two or more members) lie within
// DomainWords; a zero Keep keeps every family of its kind. The shared
// words are the left vertices B_m builds for a family and set the cost
// of shingle detection; residues do not, since the random backbones
// between domains hold half of them. A narrow band and a fixed count
// fix a kind's cost, where a budget filled first-fit would leave up to
// one family of slack. Then come the singletons: all of them, or with
// TotalSeqs set as many as bring the corpus to TotalSeqs sequences. Too
// few families or singletons in the draw is an error.
// workload.Generate labels the global families first, then the domain
// families, then the singletons, each family's members together.
func (g generator) selected(set *seq.Set, label []int) ([]int, error) {
	var ids []int
	var kept [2]int
	keeps := [2]int{g.FamilyKeep, g.DomainKeep}
	for i := 0; i < len(label); {
		j := i
		for j < len(label) && label[j] == label[i] {
			j++
		}
		keep := true
		switch {
		case label[i] < g.Families:
			if g.FamilyKeep > 0 {
				keep = kept[0] < g.FamilyKeep && inBand(residues(set, i, j), g.FamilyResidues)
			}
			if keep {
				kept[0]++
			}
		case label[i] < g.Families+g.DomainFamilies:
			if g.DomainKeep > 0 {
				keep = kept[1] < g.DomainKeep && inBand(sharedWords(set, i, j), g.DomainWords)
			}
			if keep {
				kept[1]++
			}
		default:
			keep = g.TotalSeqs == 0 || len(ids) < g.TotalSeqs
		}
		if keep {
			for id := i; id < j; id++ {
				ids = append(ids, id)
			}
		}
		i = j
	}
	for k, what := range []string{"global", "domain"} {
		if keeps[k] > 0 && kept[k] != keeps[k] {
			return nil, fmt.Errorf("%d %s families lie in the size band, not %d: draw more", kept[k], what, keeps[k])
		}
	}
	if g.TotalSeqs > 0 && len(ids) != g.TotalSeqs {
		return nil, fmt.Errorf("corpus holds %d sequences, not total_seqs %d: draw more singletons", len(ids), g.TotalSeqs)
	}
	return ids, nil
}

func inBand(size int, band [2]int) bool {
	return size >= band[0] && size <= band[1]
}

// residues counts the residues of the sequences lo..hi-1.
func residues(set *seq.Set, lo, hi int) int {
	n := 0
	for id := lo; id < hi; id++ {
		n += set.Get(id).Len()
	}
	return n
}

// sharedWords counts the distinct words found in at least two of the
// sequences lo..hi-1.
func sharedWords(set *seq.Set, lo, hi int) int {
	seen := map[string]int{}
	for id := lo; id < hi; id++ {
		res := set.Get(id).Res
		mine := map[string]bool{}
		for k := 0; k+wordLen <= len(res); k++ {
			mine[string(res[k:k+wordLen])] = true
		}
		for w := range mine {
			seen[w]++
		}
	}
	n := 0
	for _, c := range seen {
		if c >= 2 {
			n++
		}
	}
	return n
}

type spec struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "batch" or "waves"
	Waves int    `json:"waves,omitempty"`
	// Corpus is the union of one workload.Generate draw per part: part
	// k draws from seed + k<<32, and its names gain a "p<k>_" prefix
	// for k > 0 so they stay unique.
	Corpus    []generator `json:"corpus"`
	Reduction string      `json:"reduction"` // "global" or "domain"
	Ranks     int         `json:"ranks"`
	Threads   int         `json:"threads_per_rank"`

	ReferenceSeed   int64  `json:"reference_seed"`
	ReferenceDigest string `json:"reference_digest"`

	PredictedDominant string `json:"predicted_dominant_layer"`
}

func loadSpecs() ([]spec, error) {
	var doc struct {
		Workloads []spec `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &doc); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return doc.Workloads, nil
}

func findSpec(name string) (spec, error) {
	specs, err := loadSpecs()
	if err != nil {
		return spec{}, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// config is the only place the benchmark builds a profam.Config: every
// field keeps its default except Reduction and ThreadsPerRank (the rank
// count is an argument of the run call).
func (s spec) config() profam.Config {
	cfg := profam.Config{ThreadsPerRank: s.Threads}
	if s.Reduction == "domain" {
		cfg.Reduction = profam.DomainBased
	}
	return cfg
}

// waves is the number of ingest waves of the served pass: a batch
// workload submits its whole corpus at once.
func (s spec) waves() int {
	if s.Kind == "waves" {
		return s.Waves
	}
	return 1
}

// corpus is one workload input: the FASTA text the program parses, in
// arrival order, and the generator's family labels in the same order.
type corpus struct {
	fasta []byte
	truth []int
}

// makeCorpus generates the workload's input from seed. A waves workload
// reorders the kept sequences round-robin over its waves (the i-th
// arrives in wave i mod W), so every wave touches most families; waves
// are then contiguous slices of the corpus.
func makeCorpus(s spec, seed int64) (corpus, error) {
	all := seq.NewSet()
	var label []int
	for k, g := range s.Corpus {
		set, truth := workload.Generate(workload.Params{
			Families:       g.Families,
			MeanFamilySize: g.MeanSize,
			MeanLength:     g.MeanLength,
			ContainedFrac:  g.Contained,
			Singletons:     g.Singletons,
			DomainFamilies: g.DomainFamilies,
			DomainSize:     g.DomainSize,
			UniformSizes:   g.UniformSizes,
			Seed:           seed + int64(k)<<32,
		})
		prefix, base := "", len(label)
		if k > 0 {
			prefix = fmt.Sprintf("p%d_", k)
		}
		ids, err := g.selected(set, truth.Label)
		if err != nil {
			return corpus{}, err
		}
		for _, id := range ids {
			sq := set.Get(id)
			if _, err := all.Add(prefix+sq.Name, string(sq.Res)); err != nil {
				return corpus{}, err
			}
			label = append(label, base+truth.Label[id])
		}
	}
	out := seq.NewSet()
	var labels []int
	w := s.waves()
	for k := 0; k < w; k++ {
		for i := k; i < all.Len(); i += w {
			sq := all.Get(i)
			if _, err := out.Add(sq.Name, string(sq.Res)); err != nil {
				return corpus{}, err
			}
			labels = append(labels, label[i])
		}
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, out, 60); err != nil {
		return corpus{}, err
	}
	return corpus{fasta: buf.Bytes(), truth: labels}, nil
}

// waveBounds splits n arrival-ordered sequences into w contiguous waves
// matching makeCorpus's round-robin order.
func waveBounds(n, w int) []int {
	bounds := []int{0}
	at := 0
	for k := 0; k < w; k++ {
		size := n / w
		if k < n%w {
			size++
		}
		at += size
		bounds = append(bounds, at)
	}
	return bounds
}
