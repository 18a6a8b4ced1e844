package minhash

import "slices"

// LSH support for similarity sharding: per-sequence MinHash signatures
// over ψ-mer shingles, banded into shard buckets (Sunarso et al.'s
// MinHash-bucketed partitioning). The permutation family here is derived
// from a splitmix64 stream rather than math/rand, so the mapping from
// seed to Perm{A,B} is a frozen part of the epoch fingerprint — stable
// across Go releases, ranks, thread counts and reruns by construction.

// splitmix64 advances the state and returns the next value of the
// sequence (Steele et al., "Fast splittable pseudorandom number
// generators"). It is the usual seed-expansion primitive: every output
// is a bijective mix of the state, so even adjacent seeds yield
// unrelated permutation families.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewFamilyFixed returns c permutations derived from seed via splitmix64.
// Unlike NewFamily (which draws from math/rand and is kept for the
// Shingle phase's historical output), the seed→family mapping is defined
// by this package alone and safe to fold into a config fingerprint.
func NewFamilyFixed(c int, seed uint64) *Family {
	st := seed
	f := &Family{Perms: make([]Perm, c)}
	for i := range f.Perms {
		a := splitmix64(&st)%(MersennePrime61-1) + 1
		b := splitmix64(&st) % MersennePrime61
		f.Perms[i] = Perm{A: a, B: b}
	}
	return f
}

// KmerHash is FNV-1a over the window bytes — the shingle hash behind
// the MinHash signatures of shard placement.
func KmerHash(w []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range w {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// KmerHashes returns the distinct ψ-mer hashes of res in ascending
// order. Sequences shorter than psi have none.
func KmerHashes(res []byte, psi int) []uint64 {
	if len(res) < psi || psi <= 0 {
		return nil
	}
	out := make([]uint64, 0, len(res)-psi+1)
	for i := 0; i+psi <= len(res); i++ {
		out = append(out, KmerHash(res[i:i+psi]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Signature computes the MinHash signature of a ψ-mer hash set under
// the family: sig[j] is the minimum of Perms[j].Apply over the hashes, or MersennePrime61 (an unreachable sentinel — Apply is always
// < p) when the set is empty. sig is reused if large enough.
func (f *Family) Signature(hashes []uint64, sig []uint64) []uint64 {
	if cap(sig) < len(f.Perms) {
		sig = make([]uint64, len(f.Perms))
	}
	sig = sig[:len(f.Perms)]
	for j, pm := range f.Perms {
		min := uint64(MersennePrime61)
		for _, x := range hashes {
			if h := pm.Apply(x); h < min {
				min = h
			}
		}
		sig[j] = min
	}
	return sig
}

// BandBuckets folds a signature into its LSH band buckets: bucket t is
// HashTuple over rows [t*rows, (t+1)*rows). Two sequences land in the
// same bucket of band t exactly when they agree on all of that band's
// signature rows. len(sig) must be at least bands*rows.
func BandBuckets(sig []uint64, bands, rows int, out []uint64) []uint64 {
	if cap(out) < bands {
		out = make([]uint64, bands)
	}
	out = out[:bands]
	for t := 0; t < bands; t++ {
		out[t] = HashTuple(sig[t*rows : (t+1)*rows])
	}
	return out
}
