// Quickstart: identify protein families in a handful of sequences with
// the one-call public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"profam"
)

func main() {
	// Two tiny families plus one unrelated sequence. Members of each
	// family differ by a few substitutions; the fragment of kinase-1 is
	// redundant (95 % contained) and will be removed before clustering.
	names := []string{
		"kinase-1", "kinase-2", "kinase-3", "kinase-1-fragment",
		"transporter-1", "transporter-2", "transporter-3",
		"orphan",
	}
	seqs := []string{
		"MKLVINGKTLKGEITVEAPKSGWHHHQELVKWAKEGAELTSGGSNRWTQDYLLK",
		"MKLVINGKTLKGEITVRAPKSGWHAHQELVRWAKEGAELTSGGANRWTQDYLIK",
		"MKLVINGKSLKGEITVEAPRSGWHHHQELIKWAKEGAELTSGGSNKWTQDYLLK",
		"MKLVINGKTLKGEITVEAPKSGWHHHQELVKWAKEGAELTSG",
		"GWEIRDTHKSEIAHRFNDLGEEHFKGLVLVAFSQYLQQCPFDEHVKLAKEVTEF",
		"GWEIRDTHRSEIAHRFNDLGEEHYKGLVLVAFSQYLQQCPFDEHVRLVKEVSEF",
		"GWEVRDTHKSEIAHRYNDLGEEHFKGLVLVAYSQYLQECPFDEHIKLAKEVTEF",
		"PPGFSPEEAYVIKSGARICNLDNAWDAGEGQNTIPGMKKYWPLLL",
	}

	res, err := profam.RunParallel(1, names, seqs, profam.Config{
		Psi:              6, // tiny inputs: loosen the match filter
		MinComponentSize: 2,
		MinFamilySize:    2,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input: %d sequences, %d after redundancy removal\n",
		res.NumInput, res.NumNonRedundant)
	fmt.Printf("connected components: %d, families: %d\n\n",
		len(res.Components), len(res.Families))
	for fi, fam := range res.Families {
		fmt.Printf("family %d (density %.0f%%):\n", fi, 100*fam.Density)
		for _, id := range fam.Members {
			fmt.Printf("  %s\n", names[id])
		}
	}
	fmt.Printf("\nredundancy removal aligned %d of %d promising pairs (%.0f%% work reduction)\n",
		res.RR.PairsAligned, res.RR.PairsGenerated, 100*res.RR.WorkReduction())
}
