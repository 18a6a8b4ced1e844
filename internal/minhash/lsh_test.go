package minhash

import (
	"slices"
	"testing"
)

func TestNewFamilyFixedDeterministic(t *testing.T) {
	a := NewFamilyFixed(16, 42)
	b := NewFamilyFixed(16, 42)
	if len(a.Perms) != 16 {
		t.Fatalf("got %d perms", len(a.Perms))
	}
	for i := range a.Perms {
		if a.Perms[i] != b.Perms[i] {
			t.Fatalf("perm %d differs across constructions: %v vs %v", i, a.Perms[i], b.Perms[i])
		}
		if a.Perms[i].A == 0 || a.Perms[i].A >= MersennePrime61 {
			t.Fatalf("perm %d coefficient a=%d outside [1, p)", i, a.Perms[i].A)
		}
		if a.Perms[i].B >= MersennePrime61 {
			t.Fatalf("perm %d coefficient b=%d outside [0, p)", i, a.Perms[i].B)
		}
	}
	c := NewFamilyFixed(16, 43)
	same := 0
	for i := range a.Perms {
		if a.Perms[i] == c.Perms[i] {
			same++
		}
	}
	if same == 16 {
		t.Fatal("adjacent seeds produced identical families")
	}
}

func TestKmerHashes(t *testing.T) {
	hs := KmerHashes([]byte("ABCABCAB"), 3)
	// Distinct 3-mers: ABC, BCA, CAB — repeats count once.
	if len(hs) != 3 {
		t.Fatalf("got %d hashes, want 3: %v", len(hs), hs)
	}
	for i := 1; i < len(hs); i++ {
		if hs[i-1] >= hs[i] {
			t.Fatalf("hashes not strictly ascending: %v", hs)
		}
	}
	for _, w := range []string{"ABC", "BCA", "CAB"} {
		if _, ok := slices.BinarySearch(hs, KmerHash([]byte(w))); !ok {
			t.Fatalf("%s missing from %v", w, hs)
		}
	}
	if got := KmerHashes([]byte("AB"), 3); got != nil {
		t.Fatalf("short sequence should have no hashes, got %v", got)
	}
}

func TestSignatureAndBands(t *testing.T) {
	f := NewFamilyFixed(8, 7)
	pa := KmerHashes([]byte("MKVLATTRWQPLDNSEAGHIKF"), 8)
	pb := KmerHashes([]byte("MKVLATTRWQPLDNSEAGHIKF"), 8)
	sa := f.Signature(pa, nil)
	sb := f.Signature(pb, nil)
	for j := range sa {
		if sa[j] != sb[j] {
			t.Fatalf("identical sequences disagree at row %d", j)
		}
		if sa[j] >= MersennePrime61 {
			t.Fatalf("non-empty signature row %d hit the sentinel", j)
		}
	}
	empty := f.Signature(nil, nil)
	for j := range empty {
		if empty[j] != MersennePrime61 {
			t.Fatalf("empty signature row %d = %d, want sentinel", j, empty[j])
		}
	}
	ba := BandBuckets(sa, 4, 2, nil)
	bb := BandBuckets(sb, 4, 2, nil)
	if len(ba) != 4 {
		t.Fatalf("got %d buckets", len(ba))
	}
	for t2 := range ba {
		if ba[t2] != bb[t2] {
			t.Fatalf("identical signatures bucket differently in band %d", t2)
		}
	}
	// A different sequence must (with these fixed seeds) land elsewhere in
	// at least one band.
	pc := KmerHashes([]byte("GGGGGGGGGGGGGGGGGGGGGG"), 8)
	bc := BandBuckets(f.Signature(pc, nil), 4, 2, nil)
	diff := false
	for t2 := range ba {
		if ba[t2] != bc[t2] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("unrelated sequences collided in every band")
	}
}
