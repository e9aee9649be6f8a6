package corpus

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// corpusModels generates a repository workload: n small models over a
// shared vocabulary, so queries hit realistic overlap everywhere.
func corpusModels(n int) []*sbml.Model {
	models := make([]*sbml.Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("bm%04d", i),
			Nodes:          10 + i%9,
			Edges:          14 + i%11,
			Seed:           int64(40000 + 23*i),
			VocabularySize: 300,
			Decorate:       true,
		})
	}
	return models
}

// benchOptions are the corpus options of BENCH_corpus.json's rows. Search
// scores on one worker per proc, so a -cpu 1 row times the inline scoring
// production runs at GOMAXPROCS=1.
var benchOptions = Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}

// BenchmarkCorpusBuild adds a whole repository to an empty corpus, across
// the small end of the size ladder; BenchmarkAdd is the 1000-model rung.
func BenchmarkCorpusBuild(b *testing.B) {
	for _, size := range []int{10, 100} {
		models := corpusModels(size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := New(benchOptions)
				for _, m := range models {
					if _, err := c.Add(m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCorpusSearch measures top-5 search latency across the size
// ladder: through the sharded inverted indexes (engine=inverted), and
// through the naive baseline that composes the query with every stored
// model (engine=allpairs), which is what serving would cost without the
// corpus subsystem. At size 100, query=large shows a medium (60-node)
// query's compile cost, and query=compiled is the serving hot path: a
// precompiled query under a context that carries no obs.Trace, so every
// stage-span site takes its no-op branch.
func BenchmarkCorpusSearch(b *testing.B) {
	opts := SearchOptions{TopK: 5}
	row := func(name string, search func() ([]Hit, error), want string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hits, err := search()
				if err != nil {
					b.Fatal(err)
				}
				if want != "" && (len(hits) == 0 || hits[0].ModelID != want) {
					b.Fatalf("search lost the planted hit %s: %v", want, hits)
				}
			}
		})
	}
	for _, size := range []int{10, 100, 1000} {
		models := corpusModels(size)
		query := models[size/2].Clone()
		c := New(benchOptions)
		for _, m := range models {
			if _, err := c.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		row(fmt.Sprintf("size=%d/engine=inverted", size), func() ([]Hit, error) { return c.Search(query, opts) }, query.ID)
		if size == 100 {
			big := biomodels.Generate(biomodels.Config{ID: "bigquery", Nodes: 60, Edges: 90, Seed: 4242, VocabularySize: 150, Decorate: true})
			row("size=100/query=large/engine=inverted", func() ([]Hit, error) { return c.Search(big, opts) }, "")
			cq, err := c.CompileQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			row("size=100/query=compiled/engine=inverted", func() ([]Hit, error) { return c.SearchCompiledContext(ctx, cq, opts) }, query.ID)
		}
		row(fmt.Sprintf("size=%d/engine=allpairs", size), func() ([]Hit, error) {
			return SearchAllPairs(models, query, benchOptions.Match, 5)
		}, query.ID)
	}
}

// BenchmarkInstall measures installing 1000 precompiled models into an
// empty corpus with one ReplaceAll, as a store's snapshot load does:
// entry and posting-list construction alone. It reports live-B/model, the
// live heap an installed corpus holds per model: keys, postings,
// dictionary and entries. The installed keys are fresh copies, as a
// store's decoded keys are, so every key string the corpus keeps is
// counted; the Docs are shared with the input, as a store's small file
// locators would be.
func BenchmarkInstall(b *testing.B) {
	opts := Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	pre := benchPrecompiled(opts, 1000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := New(opts).ReplaceAll(pre, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	before := liveHeapBytes()
	c := New(opts)
	if err := c.ReplaceAll(copyKeys(pre), nil); err != nil {
		b.Fatal(err)
	}
	after := liveHeapBytes()
	runtime.KeepAlive(c)
	runtime.KeepAlive(pre)
	b.ReportMetric(float64(int64(after)-int64(before))/float64(len(pre)), "live-B/model")
}

// BenchmarkAdd adds corpusModels(1000) to an empty in-memory corpus, as a
// cluster node's ingest does: key derivation, canonical rendering,
// deflating and install. It reports live-B/model as BenchmarkInstall
// does: what the corpus holds per model, keys, postings, dictionary,
// entries and deflated Docs, with the input models not counted.
func BenchmarkAdd(b *testing.B) {
	opts := Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	models := corpusModels(1000)
	add := func() *Corpus {
		c := New(opts)
		for _, m := range models {
			if _, err := c.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		add()
	}
	b.StopTimer()
	before := liveHeapBytes()
	c := add()
	after := liveHeapBytes()
	runtime.KeepAlive(c)
	runtime.KeepAlive(models)
	b.ReportMetric(float64(int64(after)-int64(before))/float64(len(models)), "live-B/model")
}

// benchPrecompiled derives the keys of corpusModels(n) under opts, ready
// for ReplaceAll or ApplyBatch: the store-recovery install path with
// parsing and key derivation already paid.
func benchPrecompiled(opts Options, n int) []PrecompiledModel {
	pre := make([]PrecompiledModel, n)
	for i, m := range corpusModels(n) {
		pre[i] = PrecompiledModel{ID: m.ID, Doc: Bytes(canonicalBytes(m)), Keys: core.MatchKeys(m, opts.Match)}
	}
	return pre
}

// liveHeapBytes runs a full collection and returns the heap it marked
// live.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// copyKeys returns pre with every key's strings copied.
func copyKeys(pre []PrecompiledModel) []PrecompiledModel {
	out := make([]PrecompiledModel, len(pre))
	for i, p := range pre {
		keys := make([]core.ComponentKey, len(p.Keys))
		for j, k := range p.Keys {
			keys[j] = core.ComponentKey{Component: strings.Clone(k.Component), Kind: k.Kind, Key: strings.Clone(k.Key), Tier: k.Tier}
		}
		out[i] = PrecompiledModel{ID: strings.Clone(p.ID), Doc: p.Doc, Keys: keys}
	}
	return out
}

// BenchmarkAddRemove installs one precompiled model into a 1000-model
// corpus with a one-op ApplyBatch, as a follower applies a one-record
// chunk, and removes it again. Removal filters each of the model's keys'
// posting lists, and shared unit and synonym keys have long ones.
func BenchmarkAddRemove(b *testing.B) {
	opts := Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	pre := benchPrecompiled(opts, 1001)
	c := New(opts)
	if err := c.ReplaceAll(pre[:1000], nil); err != nil {
		b.Fatal(err)
	}
	extra := pre[1000]
	add := []BatchOp{{ID: extra.ID, Doc: extra.Doc, Keys: extra.Keys}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.ApplyBatch(add); err != nil {
			b.Fatal(err)
		}
		if ok, err := c.Remove(extra.ID); !ok || err != nil {
			b.Fatalf("Remove = %v, %v", ok, err)
		}
	}
}
