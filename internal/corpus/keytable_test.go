package corpus

import (
	"fmt"
	"math/rand"
	"testing"
)

// contents returns the (key, ordinal) pairs t holds, whatever its slot
// layout.
func (t *keyTable) contents(keys []string) map[string]uint32 {
	m := make(map[string]uint32, t.n)
	for _, s := range t.slots {
		if s != 0 {
			m[keys[s-1]] = s - 1
		}
	}
	return m
}

// check verifies t's shape against keys: a power-of-two slot count
// loaded at most 3/4, n occupied slots, each naming an ordinal of keys,
// and every key found by find in exactly the slot that holds it, so no
// key is held twice or cut off from its home slot.
func (t *keyTable) check(keys []string) error {
	if len(t.slots)&(len(t.slots)-1) != 0 || t.n*4 > len(t.slots)*3 {
		return fmt.Errorf("key table of %d slots holds %d keys", len(t.slots), t.n)
	}
	held := 0
	for i, s := range t.slots {
		if s == 0 {
			continue
		}
		held++
		if int(s-1) >= len(keys) {
			return fmt.Errorf("key table slot %d holds ordinal %d of %d", i, s-1, len(keys))
		}
		key := keys[s-1]
		if at, ord, ok := t.find(keys, key, keyHash(key)); !ok || at != i || ord != s-1 {
			return fmt.Errorf("key table slot %d holds %q (ordinal %d), found at slot %d as ordinal %d (present %v)", i, key, s-1, at, ord, ok)
		}
	}
	if held != t.n {
		return fmt.Errorf("key table counts %d keys in %d occupied slots", t.n, held)
	}
	return nil
}

// TestKeyTableMatchesMap runs seeded random find, insert and remove
// sequences against a map[string]uint32 oracle, allocating and freeing
// ordinals as a shard does (a freed ordinal is reused, its key blanked
// after the removal). After every operation the table must find exactly
// the oracle's keys under their ordinals and keep its shape.
//
// The wrap pools hold keys whose home is one of the last two slots of an
// 8-slot table, and at most six of them are live, so the table never
// grows: their probe runs wrap around to slot 0, and removals shift keys
// back across the wrap. The grow pool takes the table through several
// doublings and back down to empty.
func TestKeyTableMatchesMap(t *testing.T) {
	wrapPool := func(n int) []string {
		var pool []string
		for i := 0; len(pool) < n; i++ {
			key := fmt.Sprintf("wrap:%d", i)
			if keyHash(key)&(minKeySlots-1) >= minKeySlots-2 {
				pool = append(pool, key)
			}
		}
		return pool
	}
	growPool := make([]string, 300)
	for i := range growPool {
		growPool[i] = fmt.Sprintf("species:%d:compartment", i)
	}
	cases := []struct {
		name    string
		pool    []string
		maxLive int
		ops     int
	}{
		{"wrap/4", wrapPool(4), 4, 2000},
		{"wrap/6", wrapPool(6), 6, 2000},
		{"wrap/12", wrapPool(12), 6, 4000},
		{"grow", growPool, len(growPool), 6000},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var (
					table keyTable
					keys  []string
					free  []uint32
					// wrapped counts, over all operations, the keys
					// held past the wrap, before their home slot.
					wrapped int
				)
				oracle := make(map[string]uint32)
				for op := 0; op < tc.ops; op++ {
					key := tc.pool[rng.Intn(len(tc.pool))]
					i, ord, ok := table.find(keys, key, keyHash(key))
					want, present := oracle[key]
					if ok != present || (ok && ord != want) {
						t.Fatalf("op %d: find(%q) = %d, %v; oracle %d, %v", op, key, ord, ok, want, present)
					}
					// Lean to inserts for the first half of the run and to
					// removals for the second, so the table fills and drains.
					lean := 1
					if op < tc.ops/2 {
						lean = 3
					}
					insert := len(oracle) < tc.maxLive && rng.Intn(4) < lean
					switch {
					case !ok && insert:
						if n := len(free); n > 0 {
							ord, free = free[n-1], free[:n-1]
							keys[ord] = key
						} else {
							ord = uint32(len(keys))
							keys = append(keys, key)
						}
						table.insert(keys, i, ord)
						oracle[key] = ord
					case ok && !insert:
						table.remove(keys, ord)
						keys[ord] = ""
						free = append(free, ord)
						delete(oracle, key)
					}
					if err := table.check(keys); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					for k, o := range oracle {
						if _, got, ok := table.find(keys, k, keyHash(k)); !ok || got != o {
							t.Fatalf("op %d: find(%q) = %d, %v; oracle %d", op, k, got, ok, o)
						}
					}
					if tc.maxLive > 6 {
						continue
					}
					if len(table.slots) > minKeySlots {
						t.Fatalf("op %d: wrap table grew to %d slots", op, len(table.slots))
					}
					for i, s := range table.slots {
						if s != 0 && uint64(i) < keyHash(keys[s-1])&(minKeySlots-1) {
							wrapped++
						}
					}
				}
				if tc.maxLive <= 6 && wrapped == 0 {
					t.Fatal("no key's probe run ever wrapped")
				}
			})
		}
	}
}
