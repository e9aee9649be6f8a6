package corpus

import (
	"context"
	"fmt"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/par"
)

// This file implements the corpus's bulk mutation paths, the only way a
// model read back from disk or from the replication feed is installed. A
// replication follower applies a received chunk of primary WAL records as
// one unit — one persister call (one fsync at the store level) covering
// every record — and a snapshot bootstrap replaces the whole corpus
// contents atomically. Recovery is the same two steps with no persister
// attached yet: the durable store loads its snapshot with one ReplaceAll
// and replays its WAL tail with one ApplyBatch. Both operate under every
// shard's write lock, the same discipline DumpConsistent uses on the read
// side, so "the durable log is a prefix of the in-memory state" stays true
// for batches exactly as it does for single mutations.
//
// Validation, the before hook and the persister call run serially; the
// installs then fan out across shards, each shard installing its own ops
// in batch order on its own worker (installByShard).

// BatchOp is one mutation of an ApplyBatch call: a precompiled add
// (canonical serialization plus derived keys, like PrecompiledModel) or a
// removal. Seq, when non-zero, is the externally assigned sequence
// number forwarded to the batch persister — the replication path
// preserves the primary's numbering.
type BatchOp struct {
	Remove bool
	Seq    uint64
	ID     string
	// Doc is the model's canonical serialization (adds only). The batch
	// persister replaces it with a Doc that reads the logged copy back.
	Doc Doc
	// Keys are the match keys derived from Doc under the corpus's match
	// options; the corpus stores them in its own compact form. The entry
	// parses Doc lazily on first structural use.
	Keys []core.ComponentKey
}

// BatchPersister is a Persister that can log a whole batch of mutations
// with a single durability round-trip. ApplyBatch requires it when a
// persister is attached: falling back to per-op persist calls would
// silently reintroduce the per-record fsync the batch path exists to
// amortize.
type BatchPersister interface {
	Persister
	// PersistBatch logs every op, all-or-nothing, under the same
	// "before the mutation becomes visible" contract as PersistAdd. On
	// success it sets each add's ops[i].Doc to a Doc reading the logged
	// bytes, which the installed entry keeps.
	PersistBatch(ops []BatchOp) error
}

// lockAll write-locks every shard in index order — the same order
// DumpConsistent read-locks them — and returns the matching unlock.
func (c *Corpus) lockAll() (unlock func()) {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range c.shards {
			sh.mu.Unlock()
		}
	}
}

// ApplyBatch applies a chunk of mutations as one unit: every shard is
// write-locked, the whole chunk is validated against the corpus plus the
// chunk's own earlier ops (an add after an in-chunk remove of the same id
// is legal), the attached persister logs the chunk with one call, and
// only then do the mutations become visible. An error anywhere leaves
// both the log and the corpus without any of the chunk — the all-or-
// nothing contract a replication follower needs to stay a prefix of the
// primary's log. Errors about one op name its Seq and model id.
func (c *Corpus) ApplyBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		if ops[i].ID == "" {
			return fmt.Errorf("corpus: batch op %d (seq %d) has no id", i, ops[i].Seq)
		}
		if !ops[i].Remove && ops[i].Doc == nil {
			return fmt.Errorf("corpus: batch seq %d: add of model %q has no canonical bytes", ops[i].Seq, ops[i].ID)
		}
	}
	defer c.lockAll()()
	// Validate the chunk against a presence overlay: the corpus state as
	// it will be after each earlier op in the chunk applies.
	present := make(map[string]bool)
	for _, op := range ops {
		p, known := present[op.ID]
		if !known {
			_, p = c.shardFor(op.ID).entries[op.ID]
		}
		if op.Remove {
			if !p {
				return fmt.Errorf("corpus: batch seq %d: remove of absent model %q: %w", op.Seq, op.ID, ErrNotFound)
			}
		} else if p {
			return fmt.Errorf("corpus: batch seq %d: add of model %q: %w", op.Seq, op.ID, ErrDuplicate)
		}
		present[op.ID] = !op.Remove
	}
	if c.persister != nil {
		bp, ok := c.persister.(BatchPersister)
		if !ok {
			return fmt.Errorf("corpus: attached persister %T cannot log batches", c.persister)
		}
		if err := bp.PersistBatch(ops); err != nil {
			return fmt.Errorf("corpus: persist batch: %w", err)
		}
	}
	c.installByShard(len(ops), func(i int) string { return ops[i].ID }, func(sh *shard, i int) {
		op := &ops[i]
		if op.Remove {
			sh.removeLocked(op.ID)
			return
		}
		sh.install(newEntry(op.ID, op.Doc), op.Keys)
	})
	return nil
}

// ReplaceAll atomically replaces the entire corpus contents with models —
// the snapshot-load path: the durable store's Open loads its snapshot with
// it, and a follower that falls behind the primary's compaction horizon
// resynchronizes from a snapshot image with it. The persister is
// deliberately bypassed: the caller already holds the durable image the
// new contents came from.
// before, if non-nil, runs while every shard write lock is held (the store
// uses it to reset its sequence state at a point provably consistent with
// the swap), exactly mirroring DumpConsistent's hook on the read side.
func (c *Corpus) ReplaceAll(models []PrecompiledModel, before func()) error {
	seen := make(map[string]bool, len(models))
	for i := range models {
		if models[i].ID == "" {
			return fmt.Errorf("corpus: replacement model %d has no id", i)
		}
		if models[i].Doc == nil {
			return fmt.Errorf("corpus: replacement model %q has no canonical bytes", models[i].ID)
		}
		if seen[models[i].ID] {
			return fmt.Errorf("corpus: replacement set repeats model %q: %w", models[i].ID, ErrDuplicate)
		}
		seen[models[i].ID] = true
	}
	defer c.lockAll()()
	if before != nil {
		before()
	}
	for _, sh := range c.shards {
		sh.reset()
	}
	c.installByShard(len(models), func(i int) string { return models[i].ID }, func(sh *shard, i int) {
		p := &models[i]
		sh.install(newEntry(p.ID, p.Doc), p.Keys)
	})
	return nil
}

// installByShard groups the op indexes [0, n) by the home shard of id(i),
// keeping their order, and then runs apply(sh, i) over each shard's group
// in order, one shard per par.Do unit. A shard therefore sees exactly the
// sequence of ops a serial loop would give it, so its slots, dictionary
// ordinals and postings come out the same at any worker count; shards
// share no install state. The caller holds every shard's write lock.
func (c *Corpus) installByShard(n int, id func(i int) string, apply func(sh *shard, i int)) {
	groups := make([][]int, len(c.shards))
	for i := 0; i < n; i++ {
		s := c.shardIndex(id(i))
		groups[s] = append(groups[s], i)
	}
	// Nothing cancels an install and apply never fails.
	_ = par.Do(context.TODO(), len(c.shards), func(_, s int) error {
		for _, i := range groups[s] {
			apply(c.shards[s], i)
		}
		return nil
	})
}
