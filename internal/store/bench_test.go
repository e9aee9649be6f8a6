package store

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// The rows of BENCH_store.json: WAL append latency per fsync policy,
// recovery (Open) latency per source, the snapshot write, and follower
// catch-up, across corpus sizes. Written by
//
//	go test -run '^$' -bench . -benchmem -cpu 1 -count 5 ./internal/store |
//	    go run ./cmd/benchfig -out BENCH_store.json

var benchCorpus = corpus.Options{Shards: 4, Workers: 4, Match: core.Options{Synonyms: synonym.Builtin()}}

// benchOpen opens dir with no background compaction and no snapshot at
// close, so measured opens leave their fixture intact.
func benchOpen(b *testing.B, dir string, fsync FsyncPolicy) *Store {
	s, err := Open(dir, Options{Corpus: benchCorpus, Fsync: fsync, CompactBytes: -1, NoSnapshotOnClose: true})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchClose(b *testing.B, s *Store) {
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchModels is the corpus suite's repository workload: n small models
// over a shared vocabulary.
func benchModels(n int) []*sbml.Model {
	models := make([]*sbml.Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID: fmt.Sprintf("bm%04d", i), Nodes: 10 + i%9, Edges: 14 + i%11,
			Seed: int64(40000 + 23*i), VocabularySize: 300, Decorate: true,
		})
	}
	return models
}

var benchSizes = []int{10, 100, 1000}

// BenchmarkWALAppend measures the per-mutation durability cost of a keyed
// add record, isolated from model compilation by pre-rendering the blob
// and pre-deriving its keys: one writer under each fsync policy, then
// concurrent writers under always. Under interval an append returns at
// once and its sync comes on the timer (the 200 ms default), so that row
// shows what deferring the sync saves. Always's group commit folds the
// records queued behind one fsync into the next, so its per-record cost
// falls as writers are added: what group commit buys an ingest-heavy
// server.
func BenchmarkWALAppend(b *testing.B) {
	m := biomodels.Generate(biomodels.Config{ID: "walblob", Nodes: 12, Edges: 16, Seed: 555, VocabularySize: 150, Decorate: true})
	blob := []byte(sbml.WrapModel(m).String())
	keys := core.MatchKeys(m, benchCorpus.Match)
	var seq atomic.Int64
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		s := benchOpen(b, b.TempDir(), policy)
		b.Run(fmt.Sprintf("fsync=%s", policy), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.PersistAddKeys(fmt.Sprintf("m%09d", seq.Add(1)), blob, keys); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchClose(b, s)
	}
	for _, writers := range []int{8, 32} {
		s := benchOpen(b, b.TempDir(), FsyncAlways)
		b.Run(fmt.Sprintf("fsync=always/writers=%d", writers), func(b *testing.B) {
			// The corpus is empty, so a snapshot rotates to a fresh
			// segment and drops the old one: file size, and with it fsync
			// cost, stays steady across the calibration runs.
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
			start := s.LastSeq()
			b.ResetTimer()
			// The writers claim exactly b.N appends between them.
			var claimed atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for claimed.Add(1) <= int64(b.N) {
						if _, err := s.PersistAddKeys(fmt.Sprintf("c%09d", seq.Add(1)), blob, keys); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
			if n := s.LastSeq() - start; n != uint64(b.N) {
				b.Fatalf("%d appends for b.N = %d", n, b.N)
			}
		})
		benchClose(b, s)
	}
}

// churnedStore replays the same churned mutation history into a store
// directory: every model added, then a throwaway clone added and
// removed. It is left as the raw WAL, which recovery must replay all 3N
// records of, or compacted at close to one snapshot of the N live models.
func churnedStore(b *testing.B, models []*sbml.Model, snapshot bool) string {
	dir := b.TempDir()
	s, err := Open(dir, Options{Corpus: benchCorpus, Fsync: FsyncNever, CompactBytes: -1, NoSnapshotOnClose: !snapshot})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range models {
		if _, err := s.Corpus().Add(m); err != nil {
			b.Fatal(err)
		}
		churn := m.Clone()
		churn.ID = m.ID + "_churn"
		if _, err := s.Corpus().Add(churn); err != nil {
			b.Fatal(err)
		}
		if ok, err := s.Corpus().Remove(churn.ID); err != nil || !ok {
			b.Fatalf("churn remove %s: ok=%v err=%v", churn.ID, ok, err)
		}
	}
	benchClose(b, s)
	return dir
}

// liveHeapBytes runs a full collection and returns the heap it marked
// live.
func liveHeapBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// BenchmarkStoreRecovery measures Open from the raw churned WAL and from
// the binary snapshot, each installed through its persisted match keys
// (the fast path) and forced through the XML parse and key derivation
// (RecoveryParseOnly): each x/x-parse gap is what the persisted keys buy.
// At 1000 models a row also reports live_heap_mb, the live heap an open
// store holds.
func BenchmarkStoreRecovery(b *testing.B) {
	for _, size := range benchSizes {
		models := benchModels(size)
		for _, src := range []struct {
			name                string
			snapshot, parseOnly bool
		}{{"wal", false, false}, {"wal-parse", false, true}, {"snapshot", true, false}, {"snapshot-parse", true, true}} {
			dir := churnedStore(b, models, src.snapshot)
			opts := Options{Corpus: benchCorpus, Fsync: FsyncNever, CompactBytes: -1, NoSnapshotOnClose: true, RecoveryParseOnly: src.parseOnly}
			open := func(b *testing.B) *Store {
				s, err := Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Corpus().Len(); got != size {
					b.Fatalf("recovered %d models, want %d", got, size)
				}
				return s
			}
			b.Run(fmt.Sprintf("models=%d/source=%s", size, src.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchClose(b, open(b))
				}
				if size == 1000 {
					b.StopTimer()
					base := liveHeapBytes()
					s := open(b)
					b.ReportMetric(float64(liveHeapBytes()-base)/1e6, "live_heap_mb")
					benchClose(b, s)
				}
			})
		}
	}
}

// BenchmarkStoreSnapshot measures the snapshot (compaction) write.
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, size := range benchSizes {
		s := benchOpen(b, churnedStore(b, benchModels(size), true), FsyncNever)
		b.Run(fmt.Sprintf("models=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchClose(b, s)
	}
}

// BenchmarkReplicationCatchUp measures a fresh follower pulling a
// size-model feed from a live primary over the real HTTP endpoints:
// every frame fetched, CRC-verified, installed from the match keys it
// carries, and batch-persisted. One op is a full catch-up, so the model
// count divided by the op time is the follower's catch-up throughput.
func BenchmarkReplicationCatchUp(b *testing.B) {
	for _, size := range benchSizes {
		primary := benchOpen(b, b.TempDir(), FsyncNever)
		for _, m := range benchModels(size) {
			if _, err := primary.Corpus().Add(m); err != nil {
				b.Fatal(err)
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replicate", primary.ServeReplicate)
		mux.HandleFunc("GET /v1/replicate/snapshot", primary.ServeReplicateSnapshot)
		ts := httptest.NewServer(mux)
		target := primary.LastSeq()
		b.Run(fmt.Sprintf("models=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp("", "benchstore-follower-*")
				if err != nil {
					b.Fatal(err)
				}
				follower := benchOpen(b, dir, FsyncNever)
				rep, err := StartReplica(follower, ReplicaOptions{
					PrimaryURL: ts.URL,
					PollWait:   50 * time.Millisecond,
					MinBackoff: 5 * time.Millisecond,
					MaxBackoff: 50 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				for deadline := time.Now().Add(2 * time.Minute); follower.LastSeq() != target; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						b.Fatalf("catch-up stuck at seq %d of %d", follower.LastSeq(), target)
					}
				}
				rep.Stop()
				benchClose(b, follower)
				os.RemoveAll(dir)
			}
		})
		ts.Close()
		benchClose(b, primary)
	}
}
