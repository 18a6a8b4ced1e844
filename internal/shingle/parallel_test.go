package shingle

import (
	"fmt"
	"math/rand"
	"testing"

	"profam/internal/mpi"
)

func TestDetectParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := denseBd(rng, 4, 18, 0.85, 0.2)
	p := Params{S1: 4, C1: 100, S2: 4, C2: 50, Tau: 0.4, MinSize: 4}
	want, _ := Detect(g, p)

	for _, ranks := range []int{1, 2, 5} {
		var got []DenseSubgraph
		_, err := mpi.RunSim(ranks, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			subs, _ := DetectParallel(c, g, p)
			if c.Rank() == ranks-1 { // check a non-root rank's copy too
				got = subs
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ranks=%d: parallel result differs from serial\nserial:   %v\nparallel: %v", ranks, want, got)
		}
	}
}

func TestDetectParallelOverTCP(t *testing.T) {
	RegisterWireTypes()
	mpi.RegisterType(uint64(0))
	rng := rand.New(rand.NewSource(4))
	g := denseBd(rng, 3, 12, 0.9, 0.1)
	p := Params{S1: 3, C1: 60, S2: 3, C2: 30, MinSize: 3}
	want, _ := Detect(g, p)
	var got []DenseSubgraph
	err := mpi.RunTCP(3, func(c *mpi.Comm) {
		subs, _ := DetectParallel(c, g, p)
		if c.Rank() == 1 {
			got = subs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tcp parallel result differs from serial")
	}
}

func TestDetectParallelEmptyGraph(t *testing.T) {
	g := denseBd(rand.New(rand.NewSource(1)), 1, 1, 0, 0)
	_, err := mpi.RunSim(3, mpi.CostModel{}, func(c *mpi.Comm) {
		subs, _ := DetectParallel(c, g, Params{})
		if len(subs) != 0 {
			panic("single vertex produced subgraphs")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDetectParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := denseBd(rng, 20, 20, 0.8, 0.2)
	p := Params{S1: 5, C1: 100, S2: 5, C2: 50, MinSize: 5}
	for _, ranks := range []int{1, 4} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpi.RunSim(ranks, mpi.BlueGeneLike(), func(c *mpi.Comm) {
					DetectParallel(c, g, p)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
