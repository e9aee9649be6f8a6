package corpus

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
)

// checkIndex verifies a corpus's resident index against its entries:
//   - the slab and the id map agree, and the free slots are exactly the
//     empty ones;
//   - the dictionary's table is well formed, finds every live ordinal
//     under its key and holds no free one, every live ordinal's list is
//     non-empty, and every free ordinal has no key and no list;
//   - every posting names a live entry whose key at its index resolves
//     through the dictionary to the list's key, each entry's postings
//     under a key form one contiguous run in its key order, and every key
//     of every entry is posted exactly once;
//   - every entry's keys name components, kinds and tiers that exist, and
//     its component table holds distinct ids.
func checkIndex(c *Corpus) error {
	for si, sh := range c.shards {
		sh.mu.RLock()
		err := checkShard(sh)
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

func checkShard(sh *shard) error {
	live, total := 0, 0
	for slot, e := range sh.slab {
		if e == nil {
			continue
		}
		live++
		total += len(e.keys)
		if got, ok := sh.entries[e.id]; !ok || got != uint32(slot) {
			return fmt.Errorf("slot %d holds %q, which the id map sends to slot %d (present %v)", slot, e.id, got, ok)
		}
		if err := checkEntry(e); err != nil {
			return fmt.Errorf("model %q: %w", e.id, err)
		}
	}
	if live != len(sh.entries) {
		return fmt.Errorf("%d live slots for %d ids", live, len(sh.entries))
	}
	if live+len(sh.freeSlots) != len(sh.slab) {
		return fmt.Errorf("%d live and %d free slots in a slab of %d", live, len(sh.freeSlots), len(sh.slab))
	}
	for _, slot := range sh.freeSlots {
		if sh.slab[slot] != nil {
			return fmt.Errorf("free slot %d holds %q", slot, sh.slab[slot].id)
		}
	}

	if len(sh.keyStr) != len(sh.lists) {
		return fmt.Errorf("%d dictionary keys for %d posting lists", len(sh.keyStr), len(sh.lists))
	}
	if err := sh.ords.check(sh.keyStr); err != nil {
		return err
	}
	if sh.ords.n+len(sh.freeOrds) != len(sh.keyStr) {
		return fmt.Errorf("%d live and %d free ordinals in a dictionary of %d", sh.ords.n, len(sh.freeOrds), len(sh.keyStr))
	}
	free := make(map[uint32]bool)
	for _, ord := range sh.freeOrds {
		if sh.keyStr[ord] != "" || sh.lists[ord] != nil {
			return fmt.Errorf("free ordinal %d keeps key %q and %d postings", ord, sh.keyStr[ord], len(sh.lists[ord]))
		}
		free[ord] = true
	}
	for ord, key := range sh.keyStr {
		if free[uint32(ord)] {
			continue
		}
		if _, got, ok := sh.ords.find(sh.keyStr, key, keyHash(key)); !ok || got != uint32(ord) {
			return fmt.Errorf("key %q: ordinal %d is not found under it (found %d, present %v)", key, ord, got, ok)
		}
		if len(sh.lists[ord]) == 0 {
			return fmt.Errorf("key %q: empty posting list", key)
		}
	}
	for key, ord := range sh.ords.contents(sh.keyStr) {
		if free[ord] {
			return fmt.Errorf("free ordinal %d is in the table under %q", ord, key)
		}
	}

	posted := 0
	for ord, list := range sh.lists {
		key := sh.keyStr[ord]
		posted += len(list)
		done := make(map[uint32]bool)
		for j, p := range list {
			if int(p.slot) >= len(sh.slab) || sh.slab[p.slot] == nil {
				return fmt.Errorf("key %q: posting %d names free slot %d", key, j, p.slot)
			}
			e := sh.slab[p.slot]
			if int(p.i) >= len(e.keys) {
				return fmt.Errorf("key %q: posting %d names key %d of %q, which has %d", key, j, p.i, e.id, len(e.keys))
			}
			if got := sh.keyStr[e.keys[p.i].ord]; got != key {
				return fmt.Errorf("key %q: posting %d names %q's key %d, which is %q", key, j, e.id, p.i, got)
			}
			if j > 0 && list[j-1].slot == p.slot {
				if list[j-1].i >= p.i {
					return fmt.Errorf("key %q: %q's postings out of key order at %d", key, e.id, j)
				}
				continue
			}
			if done[p.slot] {
				return fmt.Errorf("key %q: %q's postings are not contiguous", key, e.id)
			}
			done[p.slot] = true
		}
	}
	// Postings are valid and distinct (in key order within a run), so
	// equal counts mean every key is posted.
	if posted != total {
		return fmt.Errorf("%d postings for %d keys", posted, total)
	}
	return nil
}

// checkEntry verifies an entry's compact keys and component table.
func checkEntry(e *entry) error {
	prev := uint32(0)
	seen := make(map[string]bool)
	for c, end := range e.compEnd {
		if end < prev || int(end) > len(e.comps) {
			return fmt.Errorf("component %d ends at %d after %d in %d bytes", c, end, prev, len(e.comps))
		}
		prev = end
		if id := e.comp(uint32(c)); seen[id] {
			return fmt.Errorf("component %q appears twice", id)
		} else {
			seen[id] = true
		}
	}
	if int(prev) != len(e.comps) {
		return fmt.Errorf("components end at %d of %d bytes", prev, len(e.comps))
	}
	for i, k := range e.keys {
		if int(k.comp) >= len(e.compEnd) || core.KindName(k.kind) == "" || core.KeyTier(k.tier) > core.TierUnit {
			return fmt.Errorf("key %d is %+v, past %d components", i, k, len(e.compEnd))
		}
	}
	return nil
}

// checkEmpty reports any model, dictionary key, posting or live slot a
// corpus keeps once every model is gone.
func checkEmpty(c *Corpus) error {
	for si, sh := range c.shards {
		postings := 0
		for _, list := range sh.lists {
			postings += len(list)
		}
		slots := len(sh.slab) - len(sh.freeSlots)
		if len(sh.entries) != 0 || sh.ords.n != 0 || postings != 0 || slots != 0 {
			return fmt.Errorf("shard %d keeps %d models, %d dictionary keys, %d postings and %d live slots after removing every model",
				si, len(sh.entries), sh.ords.n, postings, slots)
		}
	}
	return nil
}

// checkDump verifies that DumpConsistent gives back, for every model,
// exactly the keys it was installed with: want maps an id to them.
func checkDump(c *Corpus, want map[string][]core.ComponentKey) error {
	blobs, err := c.DumpConsistent(context.Background(), nil)
	if err != nil {
		return err
	}
	if len(blobs) != len(want) {
		return fmt.Errorf("dump holds %d models, want %d", len(blobs), len(want))
	}
	for _, b := range blobs {
		if !reflect.DeepEqual(b.Keys, want[b.ID]) {
			return fmt.Errorf("dump of %q: keys differ from the installed ones:\n got %+v\nwant %+v", b.ID, b.Keys, want[b.ID])
		}
	}
	return nil
}

// rankAll ranks c against every query, unbounded.
func rankAll(t testing.TB, c *Corpus, queries []*CompiledQuery) [][]Hit {
	t.Helper()
	out := make([][]Hit, len(queries))
	for i, q := range queries {
		hits, err := c.SearchCompiled(context.Background(), q, SearchOptions{TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hits
	}
	return out
}

// compileQueries compiles every model as a query under opts' match
// options; a compiled query is valid against any corpus sharing them.
func compileQueries(t testing.TB, opts Options, models []*sbml.Model) []*CompiledQuery {
	t.Helper()
	c := New(opts)
	qs := make([]*CompiledQuery, len(models))
	for i, m := range models {
		q, err := c.CompileQuery(m)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

func TestRemoveDropsEveryPosting(t *testing.T) {
	models := testModels(6)
	opts := testOptions(2)
	queries := compileQueries(t, opts, models)
	c := New(opts)
	fill(t, c, models)
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, sh := range c.shards {
		for _, list := range sh.lists {
			shared = shared || (len(list) > 0 && list[0].slot != list[len(list)-1].slot)
		}
	}
	if !shared {
		t.Fatal("no key is shared by two models; the test exercises nothing")
	}

	live := map[string]*sbml.Model{}
	for _, m := range models {
		live[m.ID] = m
	}
	for _, i := range []int{3, 0, 5, 1, 4, 2} {
		id := models[i].ID
		if ok, err := c.Remove(id); err != nil || !ok {
			t.Fatalf("Remove(%s) = %v, %v", id, ok, err)
		}
		delete(live, id)
		if err := checkIndex(c); err != nil {
			t.Fatalf("after removing %s: %v", id, err)
		}
		fresh := New(opts)
		for _, m := range models {
			if live[m.ID] != nil {
				fill(t, fresh, []*sbml.Model{m})
			}
		}
		if got, want := rankAll(t, c, queries), rankAll(t, fresh, queries); !reflect.DeepEqual(got, want) {
			t.Fatalf("after removing %s: rankings differ from a fresh corpus:\n got %+v\nwant %+v", id, got, want)
		}
	}
	if err := checkEmpty(c); err != nil {
		t.Fatal(err)
	}
}

// TestChurnReusesOrdinalsAndSlots: a second add-and-remove cycle over the
// same models, in another order and through ApplyBatch, leaves each
// shard's dictionary and slab no larger than the first cycle did, so
// removal frees ordinals and slots for reuse.
func TestChurnReusesOrdinalsAndSlots(t *testing.T) {
	models := testModels(10)
	c := New(testOptions(2))
	fill(t, c, models)
	for _, m := range models {
		if _, err := c.Remove(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkEmpty(c); err != nil {
		t.Fatal(err)
	}
	keys, slots := make([]int, len(c.shards)), make([]int, len(c.shards))
	for si, sh := range c.shards {
		keys[si], slots[si] = len(sh.keyStr), len(sh.slab)
		if keys[si] == 0 || slots[si] == 0 {
			t.Fatalf("shard %d held no keys or no models; the test exercises nothing", si)
		}
	}
	var ops []BatchOp
	for i := len(models) - 1; i >= 0; i-- {
		m := models[i]
		ops = append(ops, BatchOp{ID: m.ID, Doc: Bytes(canonicalBytes(m)), Keys: core.MatchKeys(m, c.opts.Match)})
	}
	if err := c.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if _, err := c.Remove(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkEmpty(c); err != nil {
		t.Fatal(err)
	}
	for si, sh := range c.shards {
		if len(sh.keyStr) > keys[si] || len(sh.slab) > slots[si] {
			t.Fatalf("shard %d: second cycle grew the dictionary %d -> %d and the slab %d -> %d",
				si, keys[si], len(sh.keyStr), slots[si], len(sh.slab))
		}
	}
}

// TestCompactIndexHoldsNoPointers pins what makes the resident index free
// for the collector: postings and entry keys hold no pointers, at 8 and
// 12 bytes.
func TestCompactIndexHoldsNoPointers(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		size uintptr
	}{{reflect.TypeFor[posting](), 8}, {reflect.TypeFor[keyRef](), 12}} {
		if hasPointers(tc.typ) {
			t.Errorf("%s holds a pointer", tc.typ)
		}
		if tc.typ.Size() != tc.size {
			t.Errorf("%s is %d bytes, want %d", tc.typ, tc.typ.Size(), tc.size)
		}
	}
}

// hasPointers reports whether a value of type t holds anything the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// churnPoolSize models make up FuzzSearchChurn's pool, so a one-byte mask
// names any subset of it.
const churnPoolSize = 8

// maxChurnBytes bounds one FuzzSearchChurn input: at most 128 operations.
const maxChurnBytes = 256

// churnFixture is FuzzSearchChurn's read-only pool: the models,
// precompiled, one compiled query per model, and for each query the set
// of models SearchAllPairs matches with it (its inclusion of a model
// depends on that model and the query alone).
type churnFixture struct {
	opts    Options
	models  []*sbml.Model
	pre     []PrecompiledModel
	queries []*CompiledQuery
	oracle  [][]bool
}

var (
	churnOnce sync.Once
	churn     churnFixture
)

func churnPool(t testing.TB) *churnFixture {
	churnOnce.Do(func() {
		churn.opts = testOptions(1)
		churn.models = testModels(churnPoolSize)
		for _, m := range churn.models {
			churn.pre = append(churn.pre, PrecompiledModel{ID: m.ID, Doc: Bytes(canonicalBytes(m)), Keys: core.MatchKeys(m, churn.opts.Match)})
		}
		churn.queries = compileQueries(t, churn.opts, churn.models)
		for _, q := range churn.models {
			hits, err := SearchAllPairs(context.Background(), churn.models, q, churn.opts.Match, -1)
			if err != nil {
				panic(err)
			}
			row := make([]bool, churnPoolSize)
			for _, h := range hits {
				for j, m := range churn.models {
					row[j] = row[j] || m.ID == h.ModelID
				}
			}
			churn.oracle = append(churn.oracle, row)
		}
	})
	return &churn
}

// FuzzSearchChurn drives corpora at 1 and 4 shards through the same
// byte-chosen sequence of Add, Remove, ApplyBatch and ReplaceAll calls
// over a pool of generated models, then checks the index invariants, that
// both dump every survivor with the keys it was installed with, that both
// rank exactly like a corpus freshly built from the surviving models, that
// every model SearchAllPairs matches is retrieved, that a search in the
// input's window (churnWindow) is that window of the unbounded ranking,
// that every candidate's greedy score is at most the maximum-weight
// assignment and at least half of it, and the assignment at most the
// per-query bound (checkAssignBounds), and that removing every survivor
// leaves no dictionary key, posting or live slot behind.
func FuzzSearchChurn(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0})
	f.Add([]byte{3, 0xff, 1, 2, 0, 2, 2, 3, 0x12, 0x34, 0x56})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 4, 0x01, 0x82, 0x03, 0x05, 1, 2, 3, 0x0f})
	f.Add([]byte{3, 0xaa, 2, 2, 0x81, 0x00, 3, 0x55, 1, 6, 0, 6, 0, 7})
	f.Add([]byte{0, 1, 0, 2, 3, 0x0c, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Add compiles its model, so an unbounded sequence would let the
		// fuzzer grow inputs that take seconds each.
		if len(data) > maxChurnBytes {
			data = data[:maxChurnBytes]
		}
		fx := churnPool(t)
		win := churnWindow(data)
		o4 := fx.opts
		o4.Shards = 4
		c1, c4 := New(fx.opts), New(o4)
		both := func(do func(c *Corpus) error) error {
			err1, err4 := do(c1), do(c4)
			if (err1 == nil) != (err4 == nil) {
				t.Fatalf("1 shard: %v; 4 shards: %v", err1, err4)
			}
			return err1
		}
		var present [churnPoolSize]bool
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for len(data) > 0 {
			op, _ := next()
			arg, _ := next()
			j := int(arg) % churnPoolSize
			switch op % 4 {
			case 0:
				err := both(func(c *Corpus) error { _, err := c.Add(fx.models[j]); return err })
				if present[j] != errors.Is(err, ErrDuplicate) {
					t.Fatalf("Add(%s) with present=%v: %v", fx.models[j].ID, present[j], err)
				}
				present[j] = true
			case 1:
				both(func(c *Corpus) error {
					if ok, err := c.Remove(fx.models[j].ID); ok != present[j] || err != nil {
						t.Fatalf("Remove(%s) = %v, %v; present %v", fx.models[j].ID, ok, err, present[j])
					}
					return nil
				})
				present[j] = false
			case 2:
				// arg's low bits count the ops, each toggling the next
				// byte's model; its high bit appends an op that must fail
				// the whole batch.
				after := present
				var ops []BatchOp
				for n := int(arg&7) + 1; n > 0; n-- {
					b, ok := next()
					if !ok {
						break
					}
					k := int(b) % churnPoolSize
					ops = append(ops, batchToggle(fx, k, after[k]))
					after[k] = !after[k]
				}
				bad := arg&0x80 != 0
				if bad {
					ops = append(ops, batchToggle(fx, j, !after[j]))
				}
				err := both(func(c *Corpus) error { return c.ApplyBatch(ops) })
				if bad != (err != nil) {
					t.Fatalf("ApplyBatch(%d ops, invalid=%v): %v", len(ops), bad, err)
				}
				if !bad {
					present = after
				}
			case 3:
				var set []PrecompiledModel
				for k := range present {
					present[k] = arg&(1<<k) != 0
					if present[k] {
						set = append(set, fx.pre[k])
					}
				}
				if err := both(func(c *Corpus) error { return c.ReplaceAll(set, nil) }); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Pool ids ascend with pool order, so survivors comes out sorted
		// like IDs.
		fresh := New(o4)
		var set []PrecompiledModel
		var survivors []string
		installed := make(map[string][]core.ComponentKey)
		for k, p := range present {
			if p {
				set = append(set, fx.pre[k])
				survivors = append(survivors, fx.models[k].ID)
				installed[fx.models[k].ID] = fx.pre[k].Keys
			}
		}
		if err := fresh.ReplaceAll(set, nil); err != nil {
			t.Fatal(err)
		}
		want := rankAll(t, fresh, fx.queries)
		for _, c := range []*Corpus{c1, c4} {
			if err := checkIndex(c); err != nil {
				t.Fatalf("%d shards: %v", len(c.shards), err)
			}
			if ids := c.IDs(); !reflect.DeepEqual(ids, survivors) {
				t.Fatalf("%d shards: ids %v, want %v", len(c.shards), ids, survivors)
			}
			if err := checkDump(c, installed); err != nil {
				t.Fatalf("%d shards: %v", len(c.shards), err)
			}
			got := rankAll(t, c, fx.queries)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards: rankings differ from a fresh corpus:\n got %+v\nwant %+v", len(c.shards), got, want)
			}
			for qi, hits := range got {
				retrieved := make(map[string]bool, len(hits))
				for _, h := range hits {
					retrieved[h.ModelID] = true
				}
				for k, p := range present {
					if p && fx.oracle[qi][k] && !retrieved[fx.models[k].ID] {
						t.Fatalf("%d shards: query %d: SearchAllPairs matches %s but Search missed it", len(c.shards), qi, fx.models[k].ID)
					}
				}
			}
			for qi, q := range fx.queries {
				if err := checkWindow(c, q, win); err != nil {
					t.Fatalf("%d shards: query %d: %v", len(c.shards), qi, err)
				}
				checkAssignBounds(t, c, q, win.Cutoff)
			}
		}

		for _, id := range survivors {
			both(func(c *Corpus) error { _, err := c.Remove(id); return err })
		}
		for _, c := range []*Corpus{c1, c4} {
			if err := checkEmpty(c); err != nil {
				t.Fatalf("%d shards: %v", len(c.shards), err)
			}
		}
	})
}

// churnWindow derives FuzzSearchChurn's search window from a hash of the
// whole input, so every input, the committed ones included, checks one:
// TopK in [-1, 8] (0 is the default 5), Offset in [-1, 9], Cutoff in
// {0, 0.5, …, 5} (above 4 drops every tier) and MinScore in
// {0, 2.5, …, 37.5}.
func churnWindow(data []byte) SearchOptions {
	h := fnv.New64a()
	h.Write(data)
	x := h.Sum64()
	return SearchOptions{
		TopK:     int(x%10) - 1,
		Offset:   int(x/10%11) - 1,
		Cutoff:   float64(x/110%11) / 2,
		MinScore: float64(x/1210%16) * 2.5,
	}
}

// checkWindow checks that searching c for q in win gives exactly the
// window of the unbounded ranking at win's cutoff, after dropping the hits
// below win's MinScore, and that every hit of the unbounded ranking has
// one evidence per match and at least one match.
func checkWindow(c *Corpus, q *CompiledQuery, win SearchOptions) error {
	all, err := c.SearchCompiled(context.Background(), q, SearchOptions{TopK: -1, Cutoff: win.Cutoff})
	if err != nil {
		return err
	}
	for _, h := range all {
		if h.Matched == 0 || len(h.Evidence) != h.Matched {
			return fmt.Errorf("cutoff %g: hit %+v has %d evidence for %d matches", win.Cutoff, h, len(h.Evidence), h.Matched)
		}
	}
	all = slices.DeleteFunc(all, func(h Hit) bool { return h.Score < win.MinScore })
	topK := win.TopK
	if topK == 0 {
		topK = 5
	}
	want := append([]Hit(nil), RankWindow(all, win.Offset, topK)...)
	got, err := c.SearchCompiled(context.Background(), q, win)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("window %+v: got %+v, want %+v", win, got, want)
	}
	return nil
}

// batchToggle returns the batch op that removes pool model k when
// present, else adds it.
func batchToggle(fx *churnFixture, k int, present bool) BatchOp {
	if present {
		return BatchOp{Remove: true, ID: fx.models[k].ID}
	}
	p := fx.pre[k]
	return BatchOp{ID: p.ID, Doc: p.Doc, Keys: p.Keys}
}
