// Command benchfig regenerates the paper's evaluation figures (§4):
//
//	benchfig -fig 8 [-stride 4]   Figure 8: log10(compose time in ms) for
//	                              each corpus model with every other model,
//	                              ascending by size, SBMLCompose only.
//	benchfig -fig 9               Figure 9: log10(compose time in ms) for
//	                              semanticSBML and SBMLCompose over all
//	                              pairs of the 17 annotated models.
//	benchfig -json [-suite compose|sim|corpus|store] [-out f.json] [-quick]
//	                              machine-readable engine benchmarks written
//	                              as JSON so the perf trajectory is tracked
//	                              across changes. Suite "compose" (default,
//	                              BENCH_compose.json): ns/op for Compose and
//	                              ComposeAll across index kinds, model sizes
//	                              and assembly strategies. Suite "sim"
//	                              (BENCH_sim.json): ODE derivative and SSA
//	                              propensity steps under the compiled slot
//	                              engine vs the tree-walking reference, full
//	                              simulation runs, and mc2.Probability
//	                              across worker counts. Suite "corpus"
//	                              (BENCH_corpus.json): repository build and
//	                              top-K search latency — inverted-index
//	                              retrieval vs the naive all-pairs
//	                              MatchModels scan — across corpus sizes
//	                              10/100/1000. Suite "store"
//	                              (BENCH_store.json): durable-store WAL
//	                              append latency per fsync policy — one
//	                              writer under never, interval and always,
//	                              and 8 and 32 concurrent writers sharing
//	                              always's group commit — and
//	                              recovery (Open) latency from raw WAL vs
//	                              binary snapshot vs the forced parse path
//	                              across corpus sizes. -quick runs each
//	                              benchmark once (CI smoke) instead of
//	                              through testing.Benchmark. Serving-level
//	                              load (open and closed loop, sockets, the
//	                              gateway) is measured by cmd/sbmlbench.
//
// Output is one whitespace-separated row per composition (ready for
// gnuplot); a summary — the numbers EXPERIMENTS.md records — goes to
// stderr. -stride samples every Nth model of the 187-model corpus so a
// full Figure 8 sweep can be traded against runtime (stride 1 = the
// complete 17,578-pair sweep).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/semanticsbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/store"
	"sbmlcompose/internal/synonym"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal has cancelled ctx, restore the default
	// disposition so a second Ctrl-C kills the process immediately
	// instead of being swallowed by the still-registered handler.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		fig      = flag.Int("fig", 8, "figure to regenerate: 8 or 9")
		stride   = flag.Int("stride", 4, "corpus sampling stride for figure 8 (1 = full sweep)")
		reps     = flag.Int("reps", 3, "repetitions per pair; the minimum is reported")
		jsonMode = flag.Bool("json", false, "run an engine benchmark suite and write JSON")
		suite    = flag.String("suite", "compose", "benchmark suite for -json: compose | sim | corpus | store")
		outPath  = flag.String("out", "", "output file for -json (default BENCH_<suite>.json)")
		quick    = flag.Bool("quick", false, "single-iteration smoke run instead of testing.Benchmark")
	)
	flag.Parse()
	if *jsonMode {
		out := *outPath
		if out == "" {
			out = "BENCH_" + *suite + ".json"
		}
		switch *suite {
		case "compose":
			return benchJSON(ctx, out, *quick, benchCompose)
		case "sim":
			return benchJSON(ctx, out, *quick, benchSim)
		case "corpus":
			return benchJSON(ctx, out, *quick, benchCorpus)
		case "store":
			return benchJSON(ctx, out, *quick, benchStore)
		default:
			return fmt.Errorf("unknown suite %q (want compose, sim, corpus or store)", *suite)
		}
	}
	switch *fig {
	case 8:
		return figure8(ctx, *stride, *reps)
	case 9:
		return figure9(ctx, *reps)
	default:
		return fmt.Errorf("unknown figure %d (want 8 or 9)", *fig)
	}
}

// benchResult is one benchmark row of the JSON report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// LiveHeapMB, on rows that measure it, is the live heap the operation
	// leaves behind: the heap marked live by a full collection with its
	// result still held, less the heap before it ran.
	LiveHeapMB float64 `json:"live_heap_mb,omitempty"`
}

// benchReport is the BENCH_compose.json schema.
type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"go_maxprocs"`
	Unix       int64         `json:"generated_unix"`
	Results    []benchResult `json:"results"`
}

// recorder runs one named benchmark body — fn must perform its operation n
// times — through testing.Benchmark, or exactly once in quick (CI smoke)
// mode.
type recorder struct {
	// ctx cancels the suite between benchmarks: each record call checks it
	// before running, so Ctrl-C skips the remaining rows and the partial
	// results are still summarized (the committed JSON is never replaced
	// by a partial run — the temp file is simply dropped).
	ctx    context.Context
	report *benchReport
	quick  bool
	err    error
}

func (r *recorder) record(name string, fn func(n int) error) {
	if r.err != nil {
		return
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.err = err
			return
		}
	}
	var res benchResult
	if r.quick {
		start := time.Now()
		if err := fn(1); err != nil {
			r.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		res = benchResult{Name: name, Iterations: 1, NsPerOp: float64(time.Since(start).Nanoseconds())}
	} else {
		var innerErr error
		b := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := fn(b.N); err != nil {
				innerErr = err
				b.FailNow()
			}
		})
		if innerErr != nil {
			r.err = fmt.Errorf("%s: %w", name, innerErr)
			return
		}
		res = benchResult{
			Name:        name,
			Iterations:  b.N,
			NsPerOp:     float64(b.T.Nanoseconds()) / float64(b.N),
			AllocsPerOp: b.AllocsPerOp(),
			BytesPerOp:  b.AllocedBytesPerOp(),
		}
	}
	r.report.Results = append(r.report.Results, res)
	fmt.Fprintf(os.Stderr, "%-56s %14.0f ns/op\n", name, res.NsPerOp)
}

// liveHeap sets the named row's LiveHeapMB: the live heap after open
// returns, with whatever it opened still held, less the live heap before
// it. The release func open returns runs after the measurement.
func (r *recorder) liveHeap(name string, open func() (release func() error, err error)) error {
	if r.err != nil {
		return nil
	}
	base := liveHeapBytes()
	release, err := open()
	if err != nil {
		return fmt.Errorf("%s: live heap: %w", name, err)
	}
	mb := float64(liveHeapBytes()-base) / 1e6
	if err := release(); err != nil {
		return fmt.Errorf("%s: live heap: %w", name, err)
	}
	for i := range r.report.Results {
		if r.report.Results[i].Name == name {
			r.report.Results[i].LiveHeapMB = mb
		}
	}
	fmt.Fprintf(os.Stderr, "%-56s %14.2f MB live heap\n", name, mb)
	return nil
}

// liveHeapBytes runs a full collection and returns the heap it marked
// live.
func liveHeapBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// benchJSON runs a suite and writes machine-readable results. A
// cancelled run reports the benchmarks it completed and leaves any
// existing output file untouched.
func benchJSON(ctx context.Context, outPath string, quick bool, suite func(*recorder) error) error {
	// Write to a sibling temp file and rename on success: the destination
	// must stay writable (checked before spending minutes benchmarking),
	// and an interrupted run must not truncate an existing snapshot.
	f, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp*")
	if err != nil {
		return err
	}
	tmpPath := f.Name()
	defer os.Remove(tmpPath) // no-op after the rename
	r := &recorder{
		ctx:   ctx,
		quick: quick,
		report: &benchReport{
			GoVersion:  runtime.Version(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Unix:       time.Now().Unix(),
		},
	}
	if err := suite(r); err != nil {
		f.Close()
		return err
	}
	if r.err != nil {
		f.Close()
		if errors.Is(r.err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "benchfig: cancelled after %d completed benchmarks; %s left untouched\n",
				len(r.report.Results), outPath)
		}
		return r.err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, outPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d results to %s\n", len(r.report.Results), outPath)
	return nil
}

// benchSizes is the shared size ladder of both suites.
var benchSizes = []struct {
	name         string
	nodes, edges int
}{{"small", 15, 20}, {"medium", 60, 90}, {"large", 150, 240}}

func benchModel(name string, nodes, edges int, seed int64) *sbml.Model {
	return biomodels.Generate(biomodels.Config{
		ID: name, Nodes: nodes, Edges: edges, Seed: seed,
		VocabularySize: 150, Decorate: true,
	})
}

// benchCompose measures Compose and ComposeAll across index kinds, model
// sizes and assembly strategies.
func benchCompose(r *recorder) error {
	tab := synonym.Builtin()
	// Pairwise Compose: index kinds × model sizes.
	kinds := []index.Kind{index.Hash, index.Linear, index.Sorted, index.SuffixTree}
	for _, sz := range benchSizes {
		a := benchModel("a", sz.nodes, sz.edges, 31337)
		b := benchModel("b", sz.nodes, sz.edges, 31338)
		for _, kind := range kinds {
			opts := core.Options{Index: kind, Synonyms: tab}
			r.record(fmt.Sprintf("Compose/size=%s/index=%s", sz.name, kind), func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := core.Compose(a, b, opts); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}

	// Batch ComposeAll: strategies × batch sizes, hash and sorted indexes.
	for _, n := range []int{8, 16} {
		models := biomodels.NamespacedBatch(n, 60, 90, 880)
		for _, kind := range []index.Kind{index.Hash, index.Sorted} {
			opts := core.Options{Index: kind, Synonyms: tab}
			r.record(fmt.Sprintf("ComposeAll/n=%d/index=%s/sequential", n, kind), func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := core.ComposeAll(models, opts); err != nil {
						return err
					}
				}
				return nil
			})
			popts := opts
			popts.Parallel = true
			r.record(fmt.Sprintf("ComposeAll/n=%d/index=%s/parallel", n, kind), func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := core.ComposeAll(models, popts); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return nil
}

// benchSim measures the simulation and model-checking stack: the ODE
// derivative and SSA propensity inner loops under the compiled slot engine
// and the tree-walking reference, full simulation runs, and the parallel
// Monte Carlo checker across worker counts.
func benchSim(r *recorder) error {
	loop := func(fn func() error) func(int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, sz := range benchSizes {
		m := benchModel("simbench_"+sz.name, sz.nodes, sz.edges, 90210)
		dc, dt, err := sim.NewDerivBench(m)
		if err != nil {
			return err
		}
		r.record(fmt.Sprintf("ODEDeriv/size=%s/engine=compiled", sz.name), loop(dc))
		r.record(fmt.Sprintf("ODEDeriv/size=%s/engine=tree", sz.name), loop(dt))

		pc, pt, err := sim.NewPropensityBench(m)
		if err != nil {
			return err
		}
		r.record(fmt.Sprintf("SSAStep/size=%s/engine=compiled", sz.name), loop(pc))
		r.record(fmt.Sprintf("SSAStep/size=%s/engine=tree", sz.name), loop(pt))

		opts := sim.Options{T0: 0, T1: 1, Step: 0.01, Seed: 7}
		eng, err := sim.Compile(m)
		if err != nil {
			return err
		}
		r.record(fmt.Sprintf("ODERun/size=%s/engine=compiled", sz.name), loop(func() error {
			_, err := eng.ODE(opts)
			return err
		}))
		r.record(fmt.Sprintf("ODERun/size=%s/engine=tree", sz.name), loop(func() error {
			_, err := sim.ReferenceODE(m, opts)
			return err
		}))
		r.record(fmt.Sprintf("SSARun/size=%s/engine=compiled", sz.name), loop(func() error {
			_, err := eng.SSA(opts)
			return err
		}))
		r.record(fmt.Sprintf("SSARun/size=%s/engine=tree", sz.name), loop(func() error {
			_, err := sim.ReferenceSSA(m, opts)
			return err
		}))
	}

	// Monte Carlo checking across worker counts (consecutive-seed scheme:
	// identical estimates at every width).
	m := benchModel("simbench_mc", 60, 90, 90211)
	formula := fmt.Sprintf("G({%s >= 0}) & F[0,2]({%s >= 0})", m.Species[0].ID, m.Species[1].ID)
	f, err := mc2.Parse(formula)
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := sim.Options{T0: 0, T1: 2, Step: 0.1, Seed: 5, Workers: workers}
		r.record(fmt.Sprintf("Probability/runs=20/workers=%d", workers), loop(func() error {
			_, err := mc2.Probability(m, f, 20, opts)
			return err
		}))
	}
	return nil
}

// corpusSizes is the repository size ladder: the point where the inverted
// index must beat the all-pairs scan is the 1000-model corpus.
var corpusSizes = []int{10, 100, 1000}

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

// benchCorpus measures the repository layer: corpus build cost, and top-K
// search latency through the sharded inverted indexes vs the naive
// baseline that pairwise-composes the query against every stored model
// (what serving would cost without the corpus subsystem).
func benchCorpus(r *recorder) error {
	tab := synonym.Builtin()
	matchOpts := core.Options{Synonyms: tab}
	for _, size := range corpusSizes {
		models := corpusModels(size)
		query := models[size/2].Clone()

		r.record(fmt.Sprintf("CorpusBuild/size=%d", size), func(n int) error {
			for i := 0; i < n; i++ {
				c := corpus.New(corpus.Options{Shards: 4, Workers: 4, Match: matchOpts})
				for _, m := range models {
					if _, err := c.Add(m); err != nil {
						return err
					}
				}
			}
			return nil
		})

		c := corpus.New(corpus.Options{Shards: 4, Workers: 4, Match: matchOpts})
		for _, m := range models {
			if _, err := c.Add(m); err != nil {
				return err
			}
		}
		sopts := corpus.SearchOptions{TopK: 5}
		r.record(fmt.Sprintf("CorpusSearch/size=%d/engine=inverted", size), func(n int) error {
			for i := 0; i < n; i++ {
				hits, err := c.Search(query, sopts)
				if err != nil {
					return err
				}
				if len(hits) == 0 || hits[0].ModelID != query.ID {
					return fmt.Errorf("inverted search lost the planted hit at size %d", size)
				}
			}
			return nil
		})
		// Search cost grows with the query's compile, which scales with
		// query size — shown once with a medium (60-node) query.
		if size == 100 {
			big := benchModel("bigquery", 60, 90, 4242)
			r.record(fmt.Sprintf("CorpusSearch/size=%d/query=large/engine=inverted", size), func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := c.Search(big, sopts); err != nil {
						return err
					}
				}
				return nil
			})
		}
		r.record(fmt.Sprintf("CorpusSearch/size=%d/engine=allpairs", size), func(n int) error {
			for i := 0; i < n; i++ {
				hits, err := corpus.SearchAllPairs(models, query, matchOpts, 5)
				if err != nil {
					return err
				}
				if len(hits) == 0 || hits[0].ModelID != query.ID {
					return fmt.Errorf("all-pairs search lost the planted hit at size %d", size)
				}
			}
			return nil
		})
	}
	return nil
}

// benchStore measures the durability layer: WAL append latency under
// each fsync policy, alone and under concurrent writers (the
// per-mutation durability cost of a keyed add
// record, isolated from model compilation by pre-rendering the blob and
// pre-deriving its keys), recovery latency —
// store.Open replaying a raw WAL vs loading a snapshot — across corpus
// sizes, and the snapshot (compaction) write itself.
func benchStore(r *recorder) error {
	copts := corpus.Options{Shards: 4, Workers: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
	walModel := benchModel("walblob", 12, 16, 555)
	blob := []byte(sbml.WrapModel(walModel).String())
	// Appends log keyed records, as every corpus add does.
	keys := core.MatchKeys(walModel, copts.Match)

	// Under interval an append returns at once; its sync comes on the
	// timer (the 200 ms default here), so the row shows what deferring the
	// sync saves against always's acknowledged-durable appends.
	for _, policy := range []store.FsyncPolicy{store.FsyncNever, store.FsyncInterval, store.FsyncAlways} {
		dir, err := os.MkdirTemp("", "benchstore-append-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		s, err := store.Open(dir, store.Options{
			Corpus: copts, Fsync: policy, CompactBytes: -1, NoSnapshotOnClose: true,
		})
		if err != nil {
			return err
		}
		seq := 0
		r.record(fmt.Sprintf("WALAppend/fsync=%s", policy), func(n int) error {
			for i := 0; i < n; i++ {
				seq++
				if _, err := s.PersistAddKeys(fmt.Sprintf("m%09d", seq), blob, keys); err != nil {
					return err
				}
			}
			return nil
		})
		if err := s.Close(); err != nil {
			return err
		}
	}

	// Concurrent appends: always's group commit folds the records queued
	// behind one fsync into the next, so the per-record cost falls as
	// writers are added — the batch a single sync covers is at most the
	// number of blocked writers. Set against the single-writer always row,
	// this is what group commit buys an ingest-heavy server.
	for _, writers := range []int{8, 32} {
		dir, err := os.MkdirTemp("", "benchstore-group-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		s, err := store.Open(dir, store.Options{
			Corpus: copts, Fsync: store.FsyncAlways, CompactBytes: -1, NoSnapshotOnClose: true,
		})
		if err != nil {
			return err
		}
		var seq atomic.Int64
		r.record(fmt.Sprintf("WALAppend/fsync=always/writers=%d", writers), func(n int) error {
			// Compact before each measured batch: the corpus is empty,
			// so this rotates to a fresh segment and drops the old one,
			// keeping file size (and thus fsync cost) steady instead of
			// compounding across testing.Benchmark's calibration runs.
			if err := s.Snapshot(); err != nil {
				return err
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			per := (n + writers - 1) / writers
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := s.PersistAddKeys(fmt.Sprintf("c%09d", seq.Add(1)), blob, keys); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			return <-errs
		})
		if err := s.Close(); err != nil {
			return err
		}
	}

	for _, size := range corpusSizes {
		models := corpusModels(size)
		// prepare replays the same churned mutation history (every model
		// add followed by an add+remove of a throwaway clone) into a
		// store directory, left either as the raw WAL — recovery must
		// replay all 3N records — or compacted to one snapshot at close,
		// which holds only the N live models. The gap between the two
		// rows is what compaction buys at restart.
		prepare := func(snapshot bool) (string, error) {
			dir, err := os.MkdirTemp("", "benchstore-rec-*")
			if err != nil {
				return "", err
			}
			s, err := store.Open(dir, store.Options{
				Corpus: copts, Fsync: store.FsyncNever, CompactBytes: -1, NoSnapshotOnClose: !snapshot,
			})
			if err != nil {
				return "", err
			}
			for _, m := range models {
				if _, err := s.Corpus().Add(m); err != nil {
					return "", err
				}
				churn := m.Clone()
				churn.ID = m.ID + "_churn"
				if _, err := s.Corpus().Add(churn); err != nil {
					return "", err
				}
				if ok, err := s.Corpus().Remove(churn.ID); err != nil || !ok {
					return "", fmt.Errorf("churn remove %s: ok=%v err=%v", churn.ID, ok, err)
				}
			}
			return dir, s.Close()
		}
		// Measured opens must leave the fixture intact: no close snapshot,
		// no background compaction.
		ropts := store.Options{
			Corpus: copts, Fsync: store.FsyncNever, CompactBytes: -1, NoSnapshotOnClose: true,
		}
		// The recovery sources: the raw churned WAL and the binary
		// snapshot, each installed through its persisted match keys (the
		// fast path) and forced through the XML parse + key-derivation
		// path (RecoveryParseOnly) — each x/x-parse gap is what the
		// persisted keys buy.
		for _, src := range []struct {
			name      string
			snapshot  bool
			parseOnly bool
		}{{"wal", false, false}, {"wal-parse", false, true}, {"snapshot", true, false}, {"snapshot-parse", true, true}} {
			dir, err := prepare(src.snapshot)
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			openOpts := ropts
			openOpts.RecoveryParseOnly = src.parseOnly
			row := fmt.Sprintf("StoreRecovery/models=%d/source=%s", size, src.name)
			r.record(row, func(n int) error {
				for i := 0; i < n; i++ {
					s, err := store.Open(dir, openOpts)
					if err != nil {
						return err
					}
					if got := s.Corpus().Len(); got != size {
						return fmt.Errorf("recovered %d models, want %d", got, size)
					}
					if err := s.Close(); err != nil {
						return err
					}
				}
				return nil
			})
			if size == 1000 {
				if err := r.liveHeap(row, func() (func() error, error) {
					s, err := store.Open(dir, openOpts)
					if err != nil {
						return nil, err
					}
					return s.Close, nil
				}); err != nil {
					return err
				}
			}
		}

		snapDir, err := prepare(true)
		if err != nil {
			return err
		}
		defer os.RemoveAll(snapDir)
		s, err := store.Open(snapDir, ropts)
		if err != nil {
			return err
		}
		r.record(fmt.Sprintf("StoreSnapshot/models=%d", size), func(n int) error {
			for i := 0; i < n; i++ {
				if err := s.Snapshot(); err != nil {
					return err
				}
			}
			return nil
		})
		if err := s.Close(); err != nil {
			return err
		}
	}

	// ReplicationCatchUp: a fresh follower pulling a size-model feed from
	// a live primary over the real HTTP endpoints — every frame fetched,
	// CRC-verified, installed from the match keys it carries, and
	// batch-persisted. One op is a full catch-up, so the model count
	// divided by the op time is the follower's catch-up throughput in
	// records/s.
	for _, size := range corpusSizes {
		models := corpusModels(size)
		pdir, err := os.MkdirTemp("", "benchstore-repl-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(pdir)
		primary, err := store.Open(pdir, store.Options{
			Corpus: copts, Fsync: store.FsyncNever, CompactBytes: -1, NoSnapshotOnClose: true,
		})
		if err != nil {
			return err
		}
		for _, m := range models {
			if _, err := primary.Corpus().Add(m); err != nil {
				return err
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replicate", primary.ServeReplicate)
		mux.HandleFunc("GET /v1/replicate/snapshot", primary.ServeReplicateSnapshot)
		ts := httptest.NewServer(mux)
		target := primary.LastSeq()
		r.record(fmt.Sprintf("ReplicationCatchUp/models=%d", size), func(n int) error {
			for i := 0; i < n; i++ {
				fdir, err := os.MkdirTemp("", "benchstore-follower-*")
				if err != nil {
					return err
				}
				follower, err := store.Open(fdir, store.Options{
					Corpus: copts, Fsync: store.FsyncNever, CompactBytes: -1, NoSnapshotOnClose: true,
				})
				if err != nil {
					return err
				}
				rep, err := store.StartReplica(follower, store.ReplicaOptions{
					PrimaryURL: ts.URL,
					PollWait:   50 * time.Millisecond,
					MinBackoff: 5 * time.Millisecond,
					MaxBackoff: 50 * time.Millisecond,
				})
				if err != nil {
					return err
				}
				deadline := time.Now().Add(2 * time.Minute)
				for follower.LastSeq() != target {
					if time.Now().After(deadline) {
						return fmt.Errorf("catch-up stuck at seq %d of %d", follower.LastSeq(), target)
					}
					time.Sleep(time.Millisecond)
				}
				rep.Stop()
				if err := follower.Close(); err != nil {
					return err
				}
				os.RemoveAll(fdir)
			}
			return nil
		})
		ts.Close()
		if err := primary.Close(); err != nil {
			return err
		}
	}
	return nil
}

// timeCompose returns the minimum wall-clock seconds over reps runs.
func timeCompose(a, b *sbml.Model, reps int, f func(a, b *sbml.Model) error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(a, b); err != nil {
			return 0, err
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best, nil
}

func log10ms(seconds float64) float64 {
	ms := seconds * 1000
	if ms <= 0 {
		ms = 1e-6
	}
	return math.Log10(ms)
}

func figure8(ctx context.Context, stride, reps int) error {
	if stride < 1 {
		stride = 1
	}
	models := biomodels.Corpus187()
	var sampled []*sbml.Model
	for i := 0; i < len(models); i += stride {
		sampled = append(sampled, models[i])
	}
	fmt.Fprintf(os.Stderr, "figure 8: %d models (stride %d), %d pairs, ascending size\n",
		len(sampled), stride, len(sampled)*(len(sampled)+1)/2)
	fmt.Println("# pair_index combined_size size_a size_b time_ms log10_time_ms")

	type pair struct{ i, j int }
	var pairs []pair
	for i := range sampled {
		for j := i; j < len(sampled); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	// The paper orders the sweep smallest-with-smallest → largest-with-
	// largest; combined size realizes that order.
	sort.Slice(pairs, func(x, y int) bool {
		sx := sampled[pairs[x].i].Size() + sampled[pairs[x].j].Size()
		sy := sampled[pairs[y].i].Size() + sampled[pairs[y].j].Size()
		return sx < sy
	})

	var times []float64
	for idx, p := range pairs {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: cancelled after %d/%d pairs\n", idx, len(pairs))
			return err
		}
		a, b := sampled[p.i], sampled[p.j]
		secs, err := timeCompose(a, b, reps, func(a, b *sbml.Model) error {
			_, err := core.Compose(a, b, core.Options{})
			return err
		})
		if err != nil {
			return err
		}
		times = append(times, secs)
		fmt.Printf("%d %d %d %d %.4f %.3f\n",
			idx, a.Size()+b.Size(), a.Size(), b.Size(), secs*1000, log10ms(secs))
	}
	// Shape summary: smallest and largest quartile means show the O(nm)
	// growth the paper's Figure 8 plots.
	q := len(times) / 4
	fmt.Fprintf(os.Stderr, "first-quartile mean %.4f ms, last-quartile mean %.4f ms (growth ×%.1f)\n",
		mean(times[:q])*1000, mean(times[len(times)-q:])*1000,
		mean(times[len(times)-q:])/mean(times[:q]))
	return nil
}

func figure9(ctx context.Context, reps int) error {
	models := biomodels.Annotated17()
	fmt.Fprintf(os.Stderr, "figure 9: %d models, %d pairs, both engines\n",
		len(models), len(models)*len(models))
	fmt.Println("# pair_index size_a size_b sbmlcompose_ms semanticsbml_ms log10_ours log10_theirs")

	var ours, theirs []float64
	idx := 0
	for _, a := range models {
		for _, b := range models {
			if err := ctx.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "benchfig: cancelled after %d/%d pairs\n", idx, len(models)*len(models))
				return err
			}
			tOurs, err := timeCompose(a, b, reps, func(a, b *sbml.Model) error {
				_, err := core.Compose(a, b, core.Options{})
				return err
			})
			if err != nil {
				return err
			}
			tTheirs, err := timeCompose(a, b, reps, func(a, b *sbml.Model) error {
				_, err := semanticsbml.Merge(a, b)
				return err
			})
			if err != nil {
				return err
			}
			ours = append(ours, tOurs)
			theirs = append(theirs, tTheirs)
			fmt.Printf("%d %d %d %.4f %.4f %.3f %.3f\n",
				idx, a.Size(), b.Size(), tOurs*1000, tTheirs*1000, log10ms(tOurs), log10ms(tTheirs))
			idx++
		}
	}
	speedup := mean(theirs) / mean(ours)
	fmt.Fprintf(os.Stderr,
		"SBMLCompose mean %.4f ms, semanticSBML mean %.2f ms, speedup ×%.0f (paper: ≥1 order of magnitude)\n",
		mean(ours)*1000, mean(theirs)*1000, speedup)
	if speedup < 10 {
		fmt.Fprintln(os.Stderr, "WARNING: speedup below one order of magnitude")
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
