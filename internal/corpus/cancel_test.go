package corpus

// Cancellation and pagination tests for the context-aware Search path. A
// countingCtx (cancel after exactly N Err() observations) sweeps the
// cancellation point across retrieval and the scoring pool, pinning the
// all-or-nothing contract: a cancelled Search returns context.Canceled
// and changes nothing; any Search that completes ranks identically to an
// uncancelled twin.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// countingCtx reports Canceled from the (n+1)-th Err() call on; the
// search code only polls Err(), so a never-closed Done channel is fine.
type countingCtx struct {
	mu        sync.Mutex
	remaining int
	done      chan struct{}
}

func newCountingCtx(n int) *countingCtx {
	return &countingCtx{remaining: n, done: make(chan struct{})}
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return c.done }
func (c *countingCtx) Value(any) any               { return nil }

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestSearchContextCancelSweep lands cancellation at every observation
// point of a multi-shard search scored on one worker per proc. After every
// cancelled attempt the very same corpus must serve an uncancelled search
// with the reference ranking — cancellation may abandon a query, never
// corrupt the repository. The first budget that survives must exceed the
// candidate count, so scoring observes ctx between candidates and not only
// retrieval between shards.
func TestSearchContextCancelSweep(t *testing.T) {
	models := testModels(30)
	c := New(testOptions(4))
	fill(t, c, models)
	query := models[7].Clone()

	ref, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	cq, err := c.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := c.retrieve(context.Background(), cq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2*len(c.shards) {
		t.Fatalf("workload too small: %d candidates over %d shards", len(cands), len(c.shards))
	}

	sawCancel := false
	for budget := 0; ; budget++ {
		hits, err := c.Search(newCountingCtx(budget), query.Clone(), SearchOptions{TopK: 10})
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %d: unexpected error %v", budget, err)
			}
			if hits != nil {
				t.Fatalf("budget %d: cancelled Search returned hits", budget)
			}
			sawCancel = true
			// The corpus must be unscathed: a follow-up uncancelled
			// search ranks exactly like the reference.
			again, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: 10})
			if err != nil {
				t.Fatalf("budget %d: follow-up search failed: %v", budget, err)
			}
			if !reflect.DeepEqual(again, ref) {
				t.Fatalf("budget %d: ranking drifted after cancelled search", budget)
			}
			continue
		}
		if !reflect.DeepEqual(hits, ref) {
			t.Fatalf("budget %d: completed search diverged from reference", budget)
		}
		if budget <= len(cands) {
			t.Fatalf("budget %d survived a search over %d candidates: scoring does not check ctx between candidates", budget, len(cands))
		}
		break // this budget survived the whole search; larger ones will too
	}
	if !sawCancel {
		t.Fatal("sweep never observed a cancellation")
	}

	// And the corpus still accepts mutations after all those aborts.
	extra := testModels(31)[30]
	extra.ID = "post_cancel_add"
	if _, err := c.Add(extra); err != nil {
		t.Fatalf("Add after cancelled searches: %v", err)
	}
	if !c.Has("post_cancel_add") {
		t.Fatal("model added after cancelled searches is missing")
	}
}

// TestSearchOffsetPagination pins that offset/TopK windows tile the full
// ranking exactly, at every shard count: pagination is applied inside the
// ranking merge, so page boundaries cannot reorder or drop tied hits.
func TestSearchOffsetPagination(t *testing.T) {
	models := testModels(40)
	query := models[3].Clone()
	for _, shards := range []int{1, 2, 4} {
		c := New(testOptions(shards))
		fill(t, c, models)

		full, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 4 {
			t.Fatalf("workload too small: %d hits", len(full))
		}
		for pageSize := 1; pageSize <= 3; pageSize++ {
			var paged []Hit
			for off := 0; off < len(full); off += pageSize {
				page, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: pageSize, Offset: off})
				if err != nil {
					t.Fatal(err)
				}
				if len(page) > pageSize {
					t.Fatalf("shards=%d: page size %d at offset %d", shards, len(page), off)
				}
				paged = append(paged, page...)
			}
			if !reflect.DeepEqual(paged, full) {
				t.Fatalf("shards=%d pageSize=%d: pages don't tile the ranking", shards, pageSize)
			}
		}

		// Past-the-end and negative offsets degrade gracefully.
		if page, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: 3, Offset: len(full) + 1}); err != nil || len(page) != 0 {
			t.Fatalf("offset past end: %v hits, err %v", page, err)
		}
		if page, err := c.Search(context.Background(), query.Clone(), SearchOptions{TopK: -1, Offset: -5}); err != nil || !reflect.DeepEqual(page, full) {
			t.Fatalf("negative offset should mean 0: err %v", err)
		}
	}
}

// TestComposeWithContextCancelled pins the corpus compose path: a
// pre-cancelled context aborts before touching anything and the stored
// model stays composable.
func TestComposeWithContextCancelled(t *testing.T) {
	models := testModels(2)
	c := New(testOptions(2))
	fill(t, c, models)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ComposeWith(ctx, models[0].ID, models[1].Clone()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ComposeWith = %v, want context.Canceled", err)
	}
	res, err := c.ComposeWith(context.Background(), models[0].ID, models[1].Clone())
	if err != nil || res.Model == nil {
		t.Fatalf("follow-up ComposeWith failed: %v", err)
	}
}
