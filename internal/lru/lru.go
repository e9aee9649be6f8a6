// Package lru provides the one mutex-guarded LRU cache shape shared by
// the HTTP server's raw-body search cache and the Client's compiled-engine
// cache: string keys, most-recently-used at the front, eviction past a
// fixed capacity. Values must be safe to share between goroutines after
// insertion (both users cache immutable compiled artifacts).
package lru

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity LRU map. The zero value is not usable; make
// one with New.
type Cache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	byKey map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most max entries; max must be
// positive.
func New[V any](max int) *Cache[V] {
	return &Cache[V]{max: max, ll: list.New(), byKey: make(map[string]*list.Element, max)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts a value, evicting the least recently used entry past
// capacity. A concurrent duplicate insert keeps the newer value; callers
// cache pure functions of the key, so both are equal by construction.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*entry[V]).key)
	}
}

// Len reports the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
