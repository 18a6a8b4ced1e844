package profam_test

import (
	"fmt"

	"profam"
)

// ExampleRunParallel clusters six sequences into two families with the one-call
// API.
func ExampleRunParallel() {
	names := []string{"kinA", "kinB", "traA", "traB", "traC", "orphan"}
	seqs := []string{
		"MKLVINGKTLKGEITVEAPKSGWHHHQELVKWAKEGAELTSGGSNRWTQDYLLK",
		"MKLVINGKSLKGEITVRAPRSGWHAHQELIKWAKEGAELTSGGANKWTQDYLIK",
		"GWEIRDTHKSEIAHRFNDLGEEHFKGLVLVAFSQYLQQCPFDEHVKLAKEVTEF",
		"GWEIRDTHRSEIAHRFNDLGEEHYKGLVLVAFSQYLQQCPFDEHVRLVKEVSEF",
		"GWEVRDTHKSEIAHRYNDLGEEHFKGLVLVAYSQYLQECPFDEHIKLAKEVTEF",
		"PPGFSPEEAYVIKSGARICNLDNAWDAGEGQNTIPGMKKYWPLLL",
	}
	res, err := profam.RunParallel(1, names, seqs, profam.Config{
		Psi: 6, MinComponentSize: 2, MinFamilySize: 2,
	})
	if err != nil {
		panic(err)
	}
	for fi, fam := range res.Families {
		fmt.Printf("family %d:", fi)
		for _, id := range fam.Members {
			fmt.Printf(" %s", names[id])
		}
		fmt.Println()
	}
	// Output:
	// family 0: traA traB traC
	// family 1: kinA kinB
}
