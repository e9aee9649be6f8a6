package mc2

import (
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sim"
)

// BenchmarkProbability is BENCH_sim.json's Monte Carlo rows: 20 runs
// across worker counts. The consecutive-seed scheme gives identical
// estimates at every width.
func BenchmarkProbability(b *testing.B) {
	m := biomodels.Generate(biomodels.Config{
		ID: "simbench_mc", Nodes: 60, Edges: 90, Seed: 90211, VocabularySize: 150, Decorate: true,
	})
	f, err := Parse(fmt.Sprintf("G({%s >= 0}) & F[0,2]({%s >= 0})", m.Species[0].ID, m.Species[1].ID))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := sim.Options{T0: 0, T1: 2, Step: 0.1, Seed: 5, Workers: workers}
		b.Run(fmt.Sprintf("runs=20/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Probability(m, f, 20, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
