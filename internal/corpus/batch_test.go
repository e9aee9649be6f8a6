package corpus

import (
	"bytes"
	"maps"
	"runtime"
	"slices"
	"testing"
)

// TestParallelInstallMatchesSerial pins installByShard: ReplaceAll and
// ApplyBatch, installing each shard's ops on its own worker at
// GOMAXPROCS ≥ 2, must leave every shard exactly as installing the same
// ops one at a time in batch order does: the same id map, slab and free
// slots, the same dictionary (the (key, ordinal) pairs its table holds,
// keyStr, lists, freeOrds), and the same
// keys, component table and Doc in every entry. The batch removes models,
// re-adds some of them and removes some of its own adds, so freed slots
// and ordinals are reused.
func TestParallelInstallMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	opts := testOptions(4)
	pre := benchPrecompiled(opts, 120)
	got, want := New(opts), New(opts)

	if err := got.ReplaceAll(pre[:80], nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range pre[:80] {
		want.shardFor(p.ID).install(newEntry(p.ID, p.Doc), p.Keys)
	}
	assertSameShards(t, "ReplaceAll", got, want)

	var ops []BatchOp
	for i := 0; i < 80; i += 3 {
		ops = append(ops, BatchOp{Remove: true, ID: pre[i].ID})
	}
	for _, p := range pre[80:] {
		ops = append(ops, BatchOp{ID: p.ID, Doc: p.Doc, Keys: p.Keys})
	}
	for i := 0; i < 80; i += 6 {
		ops = append(ops, BatchOp{ID: pre[i].ID, Doc: pre[i].Doc, Keys: pre[i].Keys})
	}
	for i := 81; i < 120; i += 5 {
		ops = append(ops, BatchOp{Remove: true, ID: pre[i].ID})
	}
	if err := got.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		sh := want.shardFor(op.ID)
		if op.Remove {
			sh.removeLocked(op.ID)
		} else {
			sh.install(newEntry(op.ID, op.Doc), op.Keys)
		}
	}
	assertSameShards(t, "ApplyBatch", got, want)
	if err := checkIndex(got); err != nil {
		t.Fatal(err)
	}
}

// assertSameShards fails unless got and want hold identical shards.
func assertSameShards(t *testing.T, step string, got, want *Corpus) {
	t.Helper()
	for s, g := range got.shards {
		w := want.shards[s]
		if !maps.Equal(g.entries, w.entries) || !slices.Equal(g.freeSlots, w.freeSlots) || len(g.slab) != len(w.slab) {
			t.Fatalf("%s: shard %d: id map, free slots or slab length differ", step, s)
		}
		if !maps.Equal(g.ords.contents(g.keyStr), w.ords.contents(w.keyStr)) || !slices.Equal(g.keyStr, w.keyStr) || !slices.Equal(g.freeOrds, w.freeOrds) ||
			!slices.EqualFunc(g.lists, w.lists, slices.Equal) {
			t.Fatalf("%s: shard %d: dictionaries or postings differ", step, s)
		}
		for slot, ge := range g.slab {
			we := w.slab[slot]
			if ge == nil || we == nil {
				if ge != we {
					t.Fatalf("%s: shard %d slot %d: one side is free", step, s, slot)
				}
				continue
			}
			if ge.id != we.id || !slices.Equal(ge.keys, we.keys) || ge.comps != we.comps || !slices.Equal(ge.compEnd, we.compEnd) {
				t.Fatalf("%s: shard %d slot %d: entries %q and %q differ", step, s, slot, ge.id, we.id)
			}
			gb, _ := ge.loadDoc().Bytes()
			wb, _ := we.loadDoc().Bytes()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s: shard %d slot %d: %q holds other bytes", step, s, slot, ge.id)
			}
		}
	}
}
