package mc2

import (
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sim"
)

// BenchmarkProbability is BENCH_sim.json's Monte Carlo row: 20 runs of a
// compiled model on par.Do's one worker per proc.
func BenchmarkProbability(b *testing.B) {
	m := biomodels.Generate(biomodels.Config{
		ID: "simbench_mc", Nodes: 60, Edges: 90, Seed: 90211, VocabularySize: 150, Decorate: true,
	})
	f, err := Parse(fmt.Sprintf("G({%s >= 0}) & F[0,2]({%s >= 0})", m.Species[0].ID, m.Species[1].ID))
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{T0: 0, T1: 2, Step: 0.1, Seed: 5}
	b.Run("runs=20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := probability(b, m, f, 20, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
