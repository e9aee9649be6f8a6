package sbmlcompose

// Benchmark harness for the paper's evaluation (§4). One benchmark per
// figure plus the ablations DESIGN.md calls out:
//
//	BenchmarkFigure8Compose       — pairwise composition time vs model size
//	                                across the 187-model corpus (Figure 8)
//	BenchmarkFigure9SBMLCompose   — all pairs of the 17 annotated models,
//	                                our composer (Figure 9, upper series)
//	BenchmarkFigure9SemanticSBML  — same pairs, the semanticSBML baseline
//	                                with its per-run DB load (Figure 9,
//	                                lower series)
//	BenchmarkSemanticsLevels      — heavy vs light vs none (§5 future work)
//	BenchmarkIndexStructures      — hash vs linear vs sorted vs suffix tree
//	                                (§5 items 3 and 7)
//	BenchmarkMathPatternVsExact   — Figure 7 pattern matching vs exact tree
//	                                equality on commuted kinetic laws
//
// cmd/benchfig regenerates the actual figure series (log10 time vs size);
// the engine rows of the BENCH_*.json files are benchmarks in the packages
// they measure (internal/core, sim, mc2, corpus and store).

import (
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/semanticsbml"
	"sbmlcompose/internal/xmlmerge"
)

var (
	corpusOnce    []*sbml.Model
	annotatedOnce []*sbml.Model
)

func corpus() []*sbml.Model {
	if corpusOnce == nil {
		corpusOnce = biomodels.Corpus187()
	}
	return corpusOnce
}

func annotated() []*sbml.Model {
	if annotatedOnce == nil {
		annotatedOnce = biomodels.Annotated17()
	}
	return annotatedOnce
}

// BenchmarkFigure8Compose measures composition across corpus size buckets:
// each sub-benchmark composes a model with its size neighbour, in ascending
// order of size exactly as the paper's sweep ran.
func BenchmarkFigure8Compose(b *testing.B) {
	models := corpus()
	for _, bucket := range []struct {
		name string
		idx  int
	}{
		{"size~0", 5},
		{"size~30", 60},
		{"size~120", 110},
		{"size~250", 150},
		{"size~500", 185},
	} {
		m1 := models[bucket.idx]
		m2 := models[bucket.idx+1]
		b.Run(fmt.Sprintf("%s/%dx%d", bucket.name, m1.Size(), m2.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compose(m1, m2, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9SBMLCompose runs the full 17×17 pairwise sweep of the
// annotated collection with SBMLCompose.
func BenchmarkFigure9SBMLCompose(b *testing.B) {
	models := annotated()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m1 := range models {
			for _, m2 := range models {
				if _, err := core.Compose(m1, m2, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure9SemanticSBML runs the same sweep through the baseline,
// including its per-run annotation-database load (the measured behaviour of
// the real tool).
func BenchmarkFigure9SemanticSBML(b *testing.B) {
	models := annotated()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m1 := range models {
			for _, m2 := range models {
				if _, err := semanticsbml.Merge(m1, m2); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure9SemanticSBMLPreloaded isolates the merge passes from the
// database load, quantifying how much of the baseline's cost is the load
// itself.
func BenchmarkFigure9SemanticSBMLPreloaded(b *testing.B) {
	models := annotated()
	merger := semanticsbml.NewMerger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m1 := range models {
			for _, m2 := range models {
				if _, err := merger.MergeLoaded(m1, m2); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSemanticsLevels ablates the matcher depth on a mid-size corpus
// pair.
func BenchmarkSemanticsLevels(b *testing.B) {
	models := corpus()
	m1, m2 := models[120], models[121]
	for _, level := range []core.SemanticsLevel{core.HeavySemantics, core.LightSemantics, core.NoSemantics} {
		b.Run(level.String(), func(b *testing.B) {
			opts := core.Options{Semantics: level}
			if level == core.HeavySemantics {
				opts.Synonyms = BuiltinSynonyms()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compose(m1, m2, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexStructures ablates the Figure 5 component index on a large
// corpus pair.
func BenchmarkIndexStructures(b *testing.B) {
	models := corpus()
	m1, m2 := models[180], models[181]
	for _, kind := range []index.Kind{index.Hash, index.Linear, index.Sorted, index.SuffixTree} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compose(m1, m2, core.Options{Index: kind}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMathPatternVsExact compares the Figure 7 pattern key against
// exact structural equality on a realistic kinetic law.
func BenchmarkMathPatternVsExact(b *testing.B) {
	law := mathml.MustParseInfix("k1*A*B - k2*C + Vmax*S/(Km + S)")
	commuted := mathml.MustParseInfix("B*A*k1 - k2*C + S*Vmax/(S + Km)")
	b.Run("pattern", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !mathml.PatternEqual(law, commuted, nil) {
				b.Fatal("patterns should match")
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if mathml.Equal(law, commuted) {
				b.Fatal("exact equality should fail on commuted input")
			}
		}
	})
}

// BenchmarkGenericVsSemantic compares the §5 future-work "generic method
// that requires no semantics" (generic XML merge) against the semantic
// composer on a mid-size corpus pair. The generic method is faster but
// blind to synonyms, commuted maths and units (see internal/xmlmerge
// tests).
func BenchmarkGenericVsSemantic(b *testing.B) {
	models := corpus()
	m1, m2 := models[120], models[121]
	x1 := sbml.WrapModel(m1).ToXML()
	x2 := sbml.WrapModel(m2).ToXML()
	b.Run("generic-xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmlmerge.Merge(x1, x2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semantic-heavy", func(b *testing.B) {
		opts := core.Options{Synonyms: BuiltinSynonyms()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compose(m1, m2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// composeAllBatch builds an order-insensitive batch: no merge order ever
// triggers a rename.
func composeAllBatch(n, nodes, edges int) []*sbml.Model {
	return biomodels.NamespacedBatch(n, nodes, edges, 9100)
}

// BenchmarkComposerStreaming isolates the marginal cost of folding one more
// model into an already-large compiled accumulator. The compiled indexes
// remove the accumulator re-clone and re-keying from each step; a linear
// initial-value collection scan over the accumulator remains, so Add is
// cheap-linear in the accumulator but dominated by the new model's size.
func BenchmarkComposerStreaming(b *testing.B) {
	models := composeAllBatch(9, 60, 90)
	base, next := models[:8], models[8]
	opts := core.Options{Synonyms: BuiltinSynonyms()}

	accRes, err := core.ComposeAll(base, opts)
	if err != nil {
		b.Fatal(err)
	}
	acc := accRes.Model

	b.Run("compiled-add", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Reseed an already-compiled accumulator outside the timer so
			// every iteration measures the same marginal operation the
			// recompose baseline performs: genuinely adding `next` once.
			b.StopTimer()
			cm, err := core.Compile(acc, opts)
			if err != nil {
				b.Fatal(err)
			}
			comp := core.NewComposerFrom(cm)
			b.StartTimer()
			if err := comp.Add(next); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompose", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compose(acc, next, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
