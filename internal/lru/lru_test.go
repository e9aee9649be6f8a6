package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheEvictsLRU checks the bound: the cache never exceeds its
// capacity, evicts the least recently used key, and a duplicate Put keeps
// one entry holding the newer value.
func TestCacheEvictsLRU(t *testing.T) {
	c := New[*int](2)
	a, b, d := new(int), new(int), new(int)
	c.Put("a", a)
	c.Put("b", b)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("d", d)
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Fatal("a evicted despite recent use")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Fatal("d missing after insert")
	}
	d2 := new(int)
	c.Put("d", d2)
	if c.Len() != 2 {
		t.Fatalf("duplicate put grew the cache: %d", c.Len())
	}
	if got, _ := c.Get("d"); got != d2 {
		t.Fatal("duplicate put kept the stale value")
	}
	// A duplicate Put also marks its key most recently used.
	c.Get("a")
	c.Put("d", d2)
	c.Put("e", new(int))
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction after d was refreshed by Put")
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d evicted despite its refreshing Put")
	}
}

// TestCacheConcurrentGetPut hammers one small cache from many goroutines
// (race detector coverage). Values are pure functions of their keys, as
// the cache's users guarantee, so every hit must return its key's value,
// and the bound must hold throughout.
func TestCacheConcurrentGetPut(t *testing.T) {
	const capacity = 4
	c := New[string](capacity)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%11)
				if v, ok := c.Get(key); ok && v != "v"+key {
					errs <- fmt.Errorf("Get(%s) = %q, want %q", key, v, "v"+key)
					return
				}
				c.Put(key, "v"+key)
				if n := c.Len(); n > capacity {
					errs <- fmt.Errorf("cache holds %d entries, capacity %d", n, capacity)
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
	if c.Len() != capacity {
		t.Fatalf("cache len = %d after the hammer, want %d", c.Len(), capacity)
	}
}
