package core

import (
	"context"
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// The rows of BENCH_compose.json, written by
//
//	go test -run '^$' -bench . -benchmem -cpu 1 -count 5 ./internal/core |
//	    go run ./cmd/benchfig -out BENCH_compose.json

// benchModel generates one decorated model of the size ladder's shape.
func benchModel(name string, nodes, edges int, seed int64) *sbml.Model {
	return biomodels.Generate(biomodels.Config{
		ID: name, Nodes: nodes, Edges: edges, Seed: seed,
		VocabularySize: 150, Decorate: true,
	})
}

// BenchmarkCompose measures pairwise Compose across index kinds and model
// sizes.
func BenchmarkCompose(b *testing.B) {
	tab := synonym.Builtin()
	for _, sz := range []struct {
		name         string
		nodes, edges int
	}{{"small", 15, 20}, {"medium", 60, 90}, {"large", 150, 240}} {
		m1 := benchModel("a", sz.nodes, sz.edges, 31337)
		m2 := benchModel("b", sz.nodes, sz.edges, 31338)
		for _, kind := range []index.Kind{index.Hash, index.Linear, index.Sorted, index.SuffixTree} {
			opts := Options{Index: kind, Synonyms: tab}
			b.Run(fmt.Sprintf("size=%s/index=%s", sz.name, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Compose(context.Background(), m1, m2, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkComposeAll measures batch assembly strategies across batch
// sizes under the hash and sorted indexes: the compiled-accumulator
// sequential fold and the seed's recompose-every-step left fold it
// replaced. FuzzComposeFold pins the two to the same answer.
func BenchmarkComposeAll(b *testing.B) {
	tab := synonym.Builtin()
	for _, n := range []int{8, 16} {
		models := biomodels.NamespacedBatch(n, 60, 90, 880)
		for _, kind := range []index.Kind{index.Hash, index.Sorted} {
			opts := Options{Index: kind, Synonyms: tab}
			for _, s := range []struct {
				name string
				run  func(b *testing.B) error
			}{
				{"sequential", func(*testing.B) error { _, err := ComposeAll(context.Background(), models, opts); return err }},
				{"seed-left-fold", func(b *testing.B) error { seedFold(b, models, opts); return nil }},
			} {
				b.Run(fmt.Sprintf("n=%d/index=%s/%s", n, kind, s.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := s.run(b); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
