package corpus

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
)

// checkIndex verifies a corpus's inverted index against its entries:
// every list is non-empty; every posting points at an installed entry's
// key under that key; each entry's postings under a key form one
// contiguous run in its key order; every posting's key shares the list's
// one key string; and every key of every entry is posted exactly once.
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
	total := 0
	for _, e := range sh.entries {
		total += len(e.keys)
	}
	posted := 0
	for key, list := range sh.inv {
		if len(list) == 0 {
			return fmt.Errorf("key %q: empty posting list", key)
		}
		posted += len(list)
		done := make(map[*entry]bool)
		for j, p := range list {
			if sh.entries[p.e.id] != p.e {
				return fmt.Errorf("key %q: posting %d points at uninstalled model %q", key, j, p.e.id)
			}
			if got := p.e.keys[p.i].Key; got != key {
				return fmt.Errorf("key %q: posting %d aliases %q's key %d, which is %q", key, j, p.e.id, p.i, got)
			}
			if unsafe.StringData(p.e.keys[p.i].Key) != unsafe.StringData(list[0].e.keys[list[0].i].Key) {
				return fmt.Errorf("key %q: posting %d (%q's key %d) holds its own copy of the key string", key, j, p.e.id, p.i)
			}
			if j > 0 && list[j-1].e == p.e {
				if list[j-1].i >= p.i {
					return fmt.Errorf("key %q: %q's postings out of key order at %d", key, p.e.id, j)
				}
				continue
			}
			if done[p.e] {
				return fmt.Errorf("key %q: %q's postings are not contiguous", key, p.e.id)
			}
			done[p.e] = true
		}
	}
	// Postings are valid and distinct (in key order within a run), so
	// equal counts mean every key is posted.
	if posted != total {
		return fmt.Errorf("%d postings for %d keys", posted, total)
	}
	return nil
}

// rankAll ranks c against every query, unbounded.
func rankAll(t testing.TB, c *Corpus, queries []*CompiledQuery) [][]Hit {
	t.Helper()
	out := make([][]Hit, len(queries))
	for i, q := range queries {
		hits, err := c.SearchCompiled(q, SearchOptions{TopK: -1})
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
	opts := testOptions(2, 2)
	queries := compileQueries(t, opts, models)
	c := New(opts)
	fill(t, c, models)
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, sh := range c.shards {
		for _, list := range sh.inv {
			shared = shared || list[0].e != list[len(list)-1].e
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
	for si, sh := range c.shards {
		if len(sh.inv) != 0 || len(sh.entries) != 0 {
			t.Fatalf("shard %d keeps %d posting lists and %d entries after removing every model", si, len(sh.inv), len(sh.entries))
		}
	}
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
		churn.opts = testOptions(1, 2)
		churn.models = testModels(churnPoolSize)
		for _, m := range churn.models {
			cm, err := core.Compile(m, churn.opts.Match)
			if err != nil {
				panic(err)
			}
			churn.pre = append(churn.pre, PrecompiledModel{ID: m.ID, Doc: Bytes(canonicalBytes(cm.Model())), Keys: cm.MatchKeys()})
		}
		churn.queries = compileQueries(t, churn.opts, churn.models)
		for _, q := range churn.models {
			hits, err := SearchAllPairs(churn.models, q, churn.opts.Match, -1)
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
// over a pool of generated models, then checks the index invariants,
// that both rank exactly like a corpus freshly built from the surviving
// models, that every model SearchAllPairs matches is retrieved, and that
// removing every survivor leaves no posting list behind.
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
				err := both(func(c *Corpus) error { return c.ApplyBatch(ownBatch(ops)) })
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
				if err := both(func(c *Corpus) error { return c.ReplaceAll(ownModels(set), nil) }); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Pool ids ascend with pool order, so survivors comes out sorted
		// like IDs.
		fresh := New(o4)
		var set []PrecompiledModel
		var survivors []string
		for k, p := range present {
			if p {
				set = append(set, fx.pre[k])
				survivors = append(survivors, fx.models[k].ID)
			}
		}
		if err := fresh.ReplaceAll(ownModels(set), nil); err != nil {
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
		}

		for _, id := range survivors {
			both(func(c *Corpus) error { _, err := c.Remove(id); return err })
		}
		for _, c := range []*Corpus{c1, c4} {
			for si, sh := range c.shards {
				if len(sh.inv) != 0 || len(sh.entries) != 0 {
					t.Fatalf("%d shards: shard %d keeps %d posting lists and %d entries after removing every model", len(c.shards), si, len(sh.inv), len(sh.entries))
				}
			}
		}
	})
}

// ownModels and ownBatch copy pool models' keys for one corpus: an
// install takes ownership of the keys it is handed (it swaps their key
// strings for the shard's), so no two corpora may share a pool slice.
func ownModels(set []PrecompiledModel) []PrecompiledModel {
	own := slices.Clone(set)
	for i := range own {
		own[i].Keys = slices.Clone(own[i].Keys)
	}
	return own
}

func ownBatch(ops []BatchOp) []BatchOp {
	own := slices.Clone(ops)
	for i := range own {
		own[i].Keys = slices.Clone(own[i].Keys)
	}
	return own
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
