package sbmlcompose

// Benchmarks of the paper's evaluation (§4) and its ablations:
//
//	BenchmarkFigure8               — the Figure 8 sweep: composition time
//	                                 against combined model size over the
//	                                 187-model corpus, with growth_exponent
//	BenchmarkFigure9SBMLCompose    — all pairs of the 17 annotated models,
//	                                 our composer (Figure 9, upper series)
//	BenchmarkFigure9SemanticSBML   — same pairs, the semanticSBML baseline
//	                                 with its per-run DB load (Figure 9,
//	                                 lower series)
//	BenchmarkFigure9SemanticSBMLPreloaded — same pairs, the baseline with
//	                                 its database loaded once
//	BenchmarkSemanticsLevels       — heavy vs light vs none (§5 future work)
//	BenchmarkIndexStructures       — hash vs linear vs sorted vs suffix tree
//	                                 (§5 items 3 and 7)
//	BenchmarkMathPatternVsExact    — Figure 7 pattern matching vs exact tree
//	                                 equality on commuted kinetic laws
//
// The Figure rows are BENCH_paper.json, from two runs that benchfig folds
// into one file. Figure 8 runs three sweeps per -count run, so each pair's
// time is a minimum over three; one sweep of the Figure 9 baseline takes
// ~30 s, so those rows keep the default benchtime:
//
//	{ go test -run '^$' -bench '^BenchmarkFigure8$' -benchtime 3x -benchmem -cpu 1 -count 5 .
//	  go test -run '^$' -bench '^BenchmarkFigure9' -benchmem -cpu 1 -count 5 .
//	} | go run ./cmd/benchfig -out BENCH_paper.json
//
// Figure 9's speedup is the SemanticSBML row's ns/op over the SBMLCompose
// row's. The engine rows of the other BENCH_*.json files are benchmarks in
// the packages they measure (internal/core, sim, mc2, corpus and store).

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

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

// figure8Stride samples the corpus for BenchmarkFigure8: every 8th model
// gives 24 models and 300 pairs, about a second per sweep, where the full
// corpus would take 17,578 pairs.
const figure8Stride = 8

// sweepPoint is one Figure 8 pair: its two models' sizes and its fastest
// compose time in ns.
type sweepPoint struct {
	a, b int
	ns   float64
}

// BenchmarkFigure8 runs the Figure 8 sweep: every sampled corpus model
// composed with itself and with each later one, in ascending combined size
// (the paper's smallest-with-smallest to largest-with-largest order). One
// op is the whole sweep. Each pair keeps its fastest time over the
// iterations, and growth_exponent fits those times against size.
func BenchmarkFigure8(b *testing.B) {
	models := corpus()
	var sampled []*sbml.Model
	for i := 0; i < len(models); i += figure8Stride {
		sampled = append(sampled, models[i])
	}
	var pairs [][2]*sbml.Model
	for i := range sampled {
		for j := i; j < len(sampled); j++ {
			pairs = append(pairs, [2]*sbml.Model{sampled[i], sampled[j]})
		}
	}
	sort.SliceStable(pairs, func(x, y int) bool {
		return pairs[x][0].Size()+pairs[x][1].Size() < pairs[y][0].Size()+pairs[y][1].Size()
	})
	pts := make([]sweepPoint, len(pairs))
	for k, p := range pairs {
		pts[k] = sweepPoint{a: p[0].Size(), b: p[1].Size(), ns: math.Inf(1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range pairs {
			start := time.Now()
			if _, err := core.Compose(context.Background(), p[0], p[1], core.Options{}); err != nil {
				b.Fatal(err)
			}
			pts[k].ns = min(pts[k].ns, float64(time.Since(start)))
		}
	}
	if k, ok := growthExponent(pts); ok {
		b.ReportMetric(k, "growth_exponent")
	}
}

// growthExponent is the least-squares slope of log(ns) against log(a+b)
// over the points whose models are both non-empty: 1 when compose time is
// linear in combined size, 2 when quadratic. ok is false when fewer than
// two such points, or points all of one size, leave the slope undefined.
func growthExponent(pts []sweepPoint) (k float64, ok bool) {
	var xs, ys []float64
	varied := false
	for _, p := range pts {
		if p.a > 0 && p.b > 0 {
			xs = append(xs, math.Log(float64(p.a+p.b)))
			ys = append(ys, math.Log(p.ns))
			varied = varied || xs[len(xs)-1] != xs[0]
		}
	}
	if !varied {
		return 0, false
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return sxy / sxx, true
}

// TestGrowthExponent: the fit recovers the exponent of exact power laws,
// ignores pairs with an empty model, and reports nothing where the slope
// is undefined.
func TestGrowthExponent(t *testing.T) {
	powerLaw := func(k float64) []sweepPoint {
		pts := []sweepPoint{{a: 0, b: 40, ns: 1e9}, {a: 7, b: 0, ns: 1}}
		for _, s := range [][2]int{{1, 1}, {1, 2}, {3, 4}, {10, 10}, {25, 60}, {200, 300}} {
			pts = append(pts, sweepPoint{a: s[0], b: s[1], ns: 350 * math.Pow(float64(s[0]+s[1]), k)})
		}
		return pts
	}
	for _, k := range []float64{1, 1.5, 2} {
		if got, ok := growthExponent(powerLaw(k)); !ok || math.Abs(got-k) > 1e-9 {
			t.Errorf("y = c·x^%g: growthExponent = %v, %v; want %g, true", k, got, ok, k)
		}
	}
	for name, pts := range map[string][]sweepPoint{
		"no points":        nil,
		"one point":        {{a: 3, b: 4, ns: 100}},
		"one non-empty":    {{a: 3, b: 4, ns: 100}, {a: 0, b: 9, ns: 50}, {a: 5, b: 0, ns: 70}},
		"all empty":        {{a: 0, b: 0, ns: 1}, {a: 0, b: 5, ns: 2}},
		"all of one size":  {{a: 1, b: 5, ns: 100}, {a: 2, b: 4, ns: 300}, {a: 3, b: 3, ns: 200}},
		"equal size pairs": {{a: 6, b: 6, ns: 10}, {a: 6, b: 6, ns: 20}},
	} {
		if got, ok := growthExponent(pts); ok {
			t.Errorf("%s: growthExponent = %v, true; want no metric", name, got)
		}
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
				if _, err := core.Compose(context.Background(), m1, m2, core.Options{}); err != nil {
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
				if _, err := core.Compose(context.Background(), m1, m2, opts); err != nil {
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
				if _, err := core.Compose(context.Background(), m1, m2, core.Options{Index: kind}); err != nil {
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
			if _, err := core.Compose(context.Background(), m1, m2, opts); err != nil {
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

	accRes, err := core.ComposeAll(context.Background(), base, opts)
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
			if err := comp.Add(context.Background(), next); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompose", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compose(context.Background(), acc, next, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
