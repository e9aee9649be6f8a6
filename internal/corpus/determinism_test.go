package corpus

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestSearchDeterministicAcrossShardsAndWorkers pins the acceptance
// criterion that sharding and the scoring fan-out are pure throughput
// mechanisms: the ranked hits (ids, scores, evidence, order) are
// identical for every shard count in {1,2,4} and, since search scores on
// one worker per proc, every GOMAXPROCS in {1,2,4,8}. Run under -race in
// CI, this also exercises the locking of concurrent reads.
func TestSearchDeterministicAcrossShardsAndWorkers(t *testing.T) {
	models := testModels(40)
	queries := []int{0, 13, 39}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var reference [][]Hit
	for _, shards := range []int{1, 2, 4} {
		c := New(testOptions(shards))
		fill(t, c, models)
		for _, workers := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(workers)
			var got [][]Hit
			for _, qi := range queries {
				hits, err := c.Search(models[qi].Clone(), SearchOptions{TopK: 10})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, hits)
			}
			if reference == nil {
				reference = got
				continue
			}
			if !reflect.DeepEqual(reference, got) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: ranking differs from shards=1 GOMAXPROCS=1:\n got %+v\nwant %+v",
					shards, workers, got, reference)
			}
		}
	}
}

// TestConcurrentAddSearchRemove hammers one corpus from many goroutines so
// the race detector can see the shard locking, the pooled deflaters of Add
// and the lazy parse of Get. Results are not asserted beyond basic sanity
// — the point is concurrent safety.
func TestConcurrentAddSearchRemove(t *testing.T) {
	models := testModels(24)
	c := New(testOptions(4))
	fill(t, c, models[:8])

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				m := models[8+4*g+i%4].Clone()
				m.ID = fmt.Sprintf("%s_g%d_%d", m.ID, g, i)
				if _, err := c.Add(m); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Search(models[g], SearchOptions{TopK: 3}); err != nil {
					t.Error(err)
					return
				}
				seed := models[(g+i)%8]
				if got, ok := c.Get(seed.ID); !ok || canonical(got) != canonical(seed) {
					t.Errorf("Get %s lost the seed model", seed.ID)
					return
				}
				if i%2 == 1 {
					if _, err := c.Remove(m.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() < 8 {
		t.Fatalf("corpus lost seed models: len=%d", c.Len())
	}
}
