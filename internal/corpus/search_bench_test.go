package corpus

import (
	"context"
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// benchCorpus100 builds the same 100-model repository the benchfig
// corpus suite measures (CorpusSearch/size=100), so this benchmark's
// numbers are directly comparable with BENCH_corpus.json rows.
func benchCorpus100(b *testing.B) (*Corpus, *sbml.Model) {
	b.Helper()
	c := New(Options{Shards: 4, Workers: 4, Match: core.Options{Synonyms: synonym.Builtin()}})
	var query *sbml.Model
	for i := 0; i < 100; i++ {
		m := biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("bm%04d", i),
			Nodes:          10 + i%9,
			Edges:          14 + i%11,
			Seed:           int64(40000 + 23*i),
			VocabularySize: 300,
			Decorate:       true,
		})
		if _, err := c.Add(m); err != nil {
			b.Fatal(err)
		}
		if i == 50 {
			query = m.Clone()
		}
	}
	return c, query
}

// BenchmarkSearchHotPath is the serving hot path exactly as an untraced
// caller runs it: compiled query, context carrying no obs.Trace, so
// every stage-span site in SearchCompiledContext and rank takes its
// no-op branch. Compare against CorpusSearch/size=100 in
// BENCH_corpus.json — the delta is the instrumentation overhead, bounded
// well under 2% (each no-op span costs ~4ns; see BenchmarkNoOpSpan in
// internal/obs).
func BenchmarkSearchHotPath(b *testing.B) {
	c, query := benchCorpus100(b)
	cq, err := c.CompileQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := SearchOptions{TopK: 5}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits, err := c.SearchCompiledContext(ctx, cq, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ModelID != query.ID {
			b.Fatalf("search lost the planted hit: %v", hits)
		}
	}
}

// benchPrecompiled generates and compiles n models under the corpus
// suite's match options, ready for AddPrecompiled: the store-recovery
// install path with parsing and key derivation already paid.
func benchPrecompiled(b *testing.B, opts Options, n int) []PrecompiledModel {
	b.Helper()
	pre := make([]PrecompiledModel, n)
	for i := range pre {
		m := biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("bm%04d", i),
			Nodes:          10 + i%9,
			Edges:          14 + i%11,
			Seed:           int64(40000 + 23*i),
			VocabularySize: 300,
			Decorate:       true,
		})
		cm, err := core.Compile(m, opts.Match)
		if err != nil {
			b.Fatal(err)
		}
		pre[i] = PrecompiledModel{ID: m.ID, SBML: canonicalBytes(cm.Model()), Keys: cm.MatchKeys()}
	}
	return pre
}

// BenchmarkInstall measures installing 1000 precompiled models into an
// empty corpus: entry and posting-list construction alone.
func BenchmarkInstall(b *testing.B) {
	opts := Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	pre := benchPrecompiled(b, opts, 1000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(opts)
		for _, p := range pre {
			if err := c.AddPrecompiled(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAddRemove installs one precompiled model into a 1000-model
// corpus and removes it again. Removal filters each of the model's
// keys' posting lists, and shared unit and synonym keys have long ones.
func BenchmarkAddRemove(b *testing.B) {
	opts := Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	pre := benchPrecompiled(b, opts, 1001)
	c := New(opts)
	for _, p := range pre[:1000] {
		if err := c.AddPrecompiled(p); err != nil {
			b.Fatal(err)
		}
	}
	extra := pre[1000]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.AddPrecompiled(extra); err != nil {
			b.Fatal(err)
		}
		if ok, err := c.Remove(extra.ID); !ok || err != nil {
			b.Fatalf("Remove = %v, %v", ok, err)
		}
	}
}
