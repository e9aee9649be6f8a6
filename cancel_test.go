package sbmlcompose

// End-to-end cancellation acceptance tests: a context cancelled mid-
// ComposeAll / mid-Search / mid-ProbabilityEstimate returns
// context.Canceled within a bounded wall-clock time, leaks no goroutines,
// and leaves shared state (the corpus) consistent — a follow-up query
// matches an uncancelled twin exactly.
//
// Real wall-clock cancellation is inherently racy against a fast
// operation, so each test retries with a short cancel delay until a
// cancellation actually lands mid-flight; the deterministic
// cancellation-point sweeps live next to the implementations
// (internal/core, internal/corpus, internal/sim).

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
)

// requireNoGoroutineGrowth fails if the goroutine count hasn't settled
// back to the baseline within a generous window (worker pools may take a
// few scheduler ticks to drain after the cancelled call returns).
func requireNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after cancellation", before, runtime.NumGoroutine())
}

// cancelMidFlight runs op with a context cancelled after delay, retrying
// until a cancellation actually lands mid-operation (op
// returns context.Canceled). It fails the test if the operation never
// observes the cancellation, or takes unboundedly long to do so.
func cancelMidFlight(t *testing.T, attempts int, delay time.Duration, op func(ctx context.Context) error) {
	t.Helper()
	for i := 0; i < attempts; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		start := time.Now()
		err := op(ctx)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if err == nil {
			continue // finished before the cancel; try again
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("attempt %d: unexpected error %v", i, err)
		}
		if elapsed > 15*time.Second {
			t.Fatalf("cancellation took %s to land", elapsed)
		}
		return
	}
	t.Fatalf("cancellation never landed mid-flight in %d attempts", attempts)
}

func TestCancelComposeAllMidFlight(t *testing.T) {
	models := biomodels.NamespacedBatch(40, 60, 90, 8101)
	cli := New()
	before := runtime.NumGoroutine()
	cancelMidFlight(t, 100, 2*time.Millisecond, func(ctx context.Context) error {
		res, err := cli.ComposeAll(ctx, models)
		if err == nil && res == nil {
			t.Fatal("nil result without error")
		}
		return err
	})
	requireNoGoroutineGrowth(t, before)

	// The inputs were never owned by the cancelled call: the same batch
	// still composes, identically to a fresh client.
	res, err := cli.ComposeAll(context.Background(), models)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New().ComposeAll(context.Background(), models)
	if err != nil {
		t.Fatal(err)
	}
	if ModelToString(res.Model) != ModelToString(ref.Model) {
		t.Fatal("post-cancellation compose diverged")
	}
}

func TestCancelCorpusSearchMidFlight(t *testing.T) {
	corpus := NewCorpus(&CorpusOptions{Shards: 4})
	models := make([]*Model, 150)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             "mf" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Nodes:          10 + i%8,
			Edges:          14 + i%9,
			Seed:           int64(9000 + 7*i),
			VocabularySize: 80,
			Decorate:       true,
		})
		if _, err := corpus.Add(models[i]); err != nil {
			t.Fatal(err)
		}
	}
	query := models[11]
	ref, err := corpus.Search(context.Background(), query.Clone(), SearchOptions{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cancelMidFlight(t, 200, 500*time.Microsecond, func(ctx context.Context) error {
		_, err := corpus.Search(ctx, query.Clone(), SearchOptions{TopK: 20})
		return err
	})
	requireNoGoroutineGrowth(t, before)

	// Corpus state is untouched: the follow-up search matches the
	// pre-cancellation reference, and mutations still work.
	again, err := corpus.Search(context.Background(), query.Clone(), SearchOptions{TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ref) {
		t.Fatal("ranking drifted after cancelled search")
	}
	late := models[0].Clone()
	late.ID = "late_add"
	if _, err := corpus.Add(late); err != nil {
		t.Fatalf("Add after cancelled search: %v", err)
	}
}

// TestCancelEstimateProbabilityMidFlight cancels a Monte Carlo estimate
// mid-flight at GOMAXPROCS 1, 2, 4 and 8. Each must leave no goroutine
// behind, and the client's cached engine must then give a cache-disabled
// client's estimate, the same at every GOMAXPROCS as at 1.
func TestCancelEstimateProbabilityMidFlight(t *testing.T) {
	m := biomodels.Generate(biomodels.Config{
		ID: "prob_m", Nodes: 10, Edges: 14, Seed: 6200, VocabularySize: 60, Decorate: true,
	})
	formula := "G({" + m.Species[0].ID + " >= 0})"
	cli := New()
	uncached := New(WithEngineCache(-1))
	opts := SimOptions{T1: 5, Step: 1, Seed: 1}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var base Estimate
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		cancelMidFlight(t, 100, 2*time.Millisecond, func(ctx context.Context) error {
			_, err := cli.ProbabilityEstimate(ctx, m, formula, 100000, opts)
			return err
		})
		requireNoGoroutineGrowth(t, before)

		got, err := cli.ProbabilityEstimate(context.Background(), m, formula, 50, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.ProbabilityEstimate(context.Background(), m, formula, 50, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("GOMAXPROCS=%d: post-cancellation estimate %+v != uncached %+v", procs, got, want)
		}
		if procs == 1 {
			base = got
		} else if got != base {
			t.Fatalf("GOMAXPROCS=%d: estimate %+v differs from GOMAXPROCS=1's %+v", procs, got, base)
		}
	}
}
