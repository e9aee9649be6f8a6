package corpus

import "hash/maphash"

// keyTable is a shard's key index: it finds the ordinal of a key string.
// It is an open-addressing hash table whose slots, a power-of-two
// []uint32, hold ordinal+1, 0 marking an empty slot. A key's home slot is
// its hash masked to the table, and collisions probe linearly. The key
// strings stay where the shard already keeps them, in keyStr, which every
// operation takes as keys: a probe compares against keys[ord]. So the
// table costs 4 bytes per slot and holds nothing for the collector to
// scan.
//
// The load stays at most 3/4 (insert doubles the table past it), and
// remove shifts the rest of the probe run back into the gap, so no
// tombstones accumulate under churn.
type keyTable struct {
	slots []uint32
	n     int // keys held
}

// minKeySlots is the size of a table's first allocation.
const minKeySlots = 8

// keySeed is the one hash seed of every keyTable in the process, so a
// key's hash, computed once (CompileQuery does it per query key), probes
// every shard's table.
var keySeed = maphash.MakeSeed()

// keyHash is the hash under which every keyTable files key.
func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

// find returns key's ordinal and whether it is present; h is
// keyHash(key). i is the slot key is in or, when it is absent, the empty
// slot insert would put it in: -1 for a table that has no slots yet.
func (t *keyTable) find(keys []string, key string, h uint64) (i int, ord uint32, ok bool) {
	mask := len(t.slots) - 1
	if mask < 0 {
		return -1, 0, false
	}
	for i = int(h) & mask; ; i = (i + 1) & mask {
		switch s := t.slots[i]; {
		case s == 0:
			return i, 0, false
		case keys[s-1] == key:
			return i, s - 1, true
		}
	}
}

// insert files ord under keys[ord], which find reported absent at slot i,
// doubling the table first when one more key would load it past 3/4.
func (t *keyTable) insert(keys []string, i int, ord uint32) {
	t.n++
	if i >= 0 && t.n*4 <= len(t.slots)*3 {
		t.slots[i] = ord + 1
		return
	}
	old := t.slots
	t.slots = make([]uint32, max(minKeySlots, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			t.place(keys, s)
		}
	}
	t.place(keys, ord+1)
}

// place puts slot value s, ordinal s-1, into the first empty slot of its
// key's probe run.
func (t *keyTable) place(keys []string, s uint32) {
	mask := len(t.slots) - 1
	i := int(keyHash(keys[s-1])) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// remove deletes ord, which the table holds under keys[ord]; keys must
// still hold every live key, that one included. Each later key of the
// probe run whose home slot does not lie cyclically in (gap, its slot]
// moves back into the gap, which then moves to its slot, so every key
// stays reachable from its home slot without a tombstone.
func (t *keyTable) remove(keys []string, ord uint32) {
	mask := len(t.slots) - 1
	i := int(keyHash(keys[ord])) & mask
	for t.slots[i] != ord+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := int(keyHash(keys[t.slots[j]-1])) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}
