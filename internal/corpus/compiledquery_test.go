package corpus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestSearchEqualsSearchCompiled pins Search(q) to
// SearchCompiled(CompileQuery(q)): same ids, scores and evidence, on
// repeated calls with one compiled query, and after the caller mutates the
// query model (a CompiledQuery is a snapshot of the model it was compiled
// from; Search follows the mutation).
func TestSearchEqualsSearchCompiled(t *testing.T) {
	models := testModels(16)
	c := New(testOptions(3))
	fill(t, c, models)

	sopts := SearchOptions{TopK: -1}
	for _, probe := range []int{0, 5, 11} {
		query := models[probe].Clone()
		want, err := c.Search(query, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || want[0].ModelID != query.ID {
			t.Fatalf("Search(%s) lost the self hit: %+v", query.ID, want)
		}
		cq, err := c.CompileQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := c.SearchCompiled(cq, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchCompiled(%s) call %d diverges from Search:\n got %+v\nwant %+v", query.ID, rep, got, want)
			}
			again, err := c.Search(query, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("Search(%s) call %d diverges from the first call:\n got %+v\nwant %+v", query.ID, rep, again, want)
			}
		}
	}

	query := models[0].Clone()
	before, err := c.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	original, err := c.Search(query, sopts)
	if err != nil {
		t.Fatal(err)
	}
	query.Species = query.Species[:1]
	mutated, err := c.Search(query, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mutated, original) {
		t.Fatal("mutating the query left its ranking unchanged; the pin below would be vacuous")
	}
	cq, err := c.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.SearchCompiled(cq, sopts); err != nil || !reflect.DeepEqual(got, mutated) {
		t.Fatalf("mutated query: SearchCompiled diverges from Search (err %v):\n got %+v\nwant %+v", err, got, mutated)
	}
	if got, err := c.SearchCompiled(before, sopts); err != nil || !reflect.DeepEqual(got, original) {
		t.Fatalf("a query compiled before the mutation changed its ranking (err %v):\n got %+v\nwant %+v", err, got, original)
	}
}

// TestConcurrentSearchesAgree runs Search from many goroutines (race
// detector coverage) and checks every result matches the single-threaded
// answer.
func TestConcurrentSearchesAgree(t *testing.T) {
	models := testModels(12)
	c := New(testOptions(4))
	fill(t, c, models)
	sopts := SearchOptions{TopK: 5}
	want := make([][]Hit, 4)
	for i := range want {
		hits, err := c.Search(models[i], sopts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hits
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := (g + i) % 4
				hits, err := c.Search(models[q], sopts)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(hits, want[q]) {
					errs <- fmt.Errorf("goroutine %d query %d diverged", g, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
