package store

import (
	"context"
	"fmt"
	"sync/atomic"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/par"
	"sbmlcompose/internal/sbml"
)

// This file implements the trust rule for persisted match keys, the
// recovery parse path it falls back to, and the two helpers that turn
// what was read back into corpus installs. There is one install path per
// source, each shared by recovery and replication:
//
//   - a snapshot (Open's corpus.snap, or a follower's snapshot image)
//     goes through snapshotModels into one corpus.ReplaceAll;
//   - WAL records (Open's tail, or a follower's received chunk) go
//     through batchOps into one corpus.ApplyBatch. Open applies its
//     batch before it attaches the store as the corpus's persister, so
//     replay logs nothing; a follower's batch is logged by PersistBatch.
//
// Both helpers go through resolveKeys: a model whose persisted keys
// survived their integrity check and were derived under this store's
// match options installs with those keys; every other model takes the
// parse path (XML parse plus core.MatchKeys).
// Either way the entry is installed as {id, Doc, keys} and parses its Doc
// lazily on first structural use; the sbml a persistedModel carries
// aliases a transient file or chunk image and is read only by the parse
// path and, for a follower, by PersistBatch.
//
// Recovery runs on every core, in three fan-outs with par.Do over
// GOMAXPROCS workers, each writing per-index slots so the schedule never
// changes the result:
//
//   - decodeSnapshotV2 (codec.go) frames the snapshot's entries serially,
//     then checks and decodes them in parallel;
//   - resolveKeys decodes or derives each model's keys independently:
//     workers claim models in chunks, so none idles behind a heavy parse,
//     and results come back positionally, so callers apply them in
//     exactly the order a sequential recovery would;
//   - ReplaceAll and ApplyBatch (internal/corpus) install each shard's
//     models on their own worker, in op order within the shard.

// persistedModel is one model as a snapshot entry or WAL record carries
// it: canonical bytes plus, when the source persisted them, match keys.
type persistedModel struct {
	id   string
	sbml []byte
	// hasKeys reports that the source carries keys that passed its
	// integrity check: decoded in keys (snapshot entries) or still
	// encoded in keysBlob (WAL records, decoded only once trusted).
	// fingerprint names the match options they were derived under.
	hasKeys     bool
	keys        []core.ComponentKey
	keysBlob    []byte
	fingerprint uint64
}

// snapshotModels resolves a decoded snapshot's keys and returns its
// models for corpus.ReplaceAll, in entry order, without Docs: each caller
// points models[i] at entry i of the snapshot file it holds, because
// ApplySnapshotImage resolves keys before it writes that file. parsed
// counts the models that took the parse path.
func (s *Store) snapshotModels(sf snapFile) (models []corpus.PrecompiledModel, parsed int, err error) {
	ms := make([]persistedModel, len(sf.entries))
	for i, e := range sf.entries {
		ms[i] = persistedModel{id: e.id, sbml: e.sbml, hasKeys: e.keysOK, keys: e.keys, fingerprint: sf.fingerprint}
	}
	models = make([]corpus.PrecompiledModel, len(ms))
	results, parsed := s.resolveKeys(ms)
	for i, r := range results {
		if r.err != nil {
			return nil, 0, fmt.Errorf("model %q: %w", ms[i].id, r.err)
		}
		models[i] = corpus.PrecompiledModel{ID: ms[i].id, Keys: r.keys}
	}
	return models, parsed, nil
}

// batchOps turns WAL records into the ops of one corpus.ApplyBatch, in
// record order, each carrying its record's seq. The adds' keys are
// resolved with one resolveKeys call, and an add whose keys failed fails
// the whole conversion, naming its seq. An add's Doc is its record's
// bytes, which alias the segment image or received chunk: Open swaps in
// locators into the segments it read, and a follower's PersistBatch swaps
// in locators into its own WAL. parsed counts the adds that took the parse
// path.
func (s *Store) batchOps(recs []walRecord) (ops []corpus.BatchOp, parsed int, err error) {
	var adds []persistedModel
	for _, rec := range recs {
		if rec.op != opRemove {
			adds = append(adds, persistedModel{id: rec.id, sbml: rec.sbml, hasKeys: rec.op == opAddKeys, keysBlob: rec.keys, fingerprint: rec.fingerprint})
		}
	}
	keys, parsed := s.resolveKeys(adds)
	ops = make([]corpus.BatchOp, len(recs))
	ai := 0
	for i, rec := range recs {
		ops[i] = corpus.BatchOp{Remove: rec.op == opRemove, Seq: rec.seq, ID: rec.id}
		if ops[i].Remove {
			continue
		}
		k := keys[ai]
		ai++
		if k.err != nil {
			return nil, 0, fmt.Errorf("seq %d: %w", rec.seq, k.err)
		}
		ops[i].Doc, ops[i].Keys = corpus.Bytes(rec.sbml), k.keys
	}
	return ops, parsed, nil
}

// keyResult is the outcome for one persistedModel, at the same index.
type keyResult struct {
	keys []core.ComponentKey
	err  error
}

// trustsKeys is the trust rule: persisted keys derived under fingerprint
// are reusable unless Options.RecoveryParseOnly forces re-derivation.
func (s *Store) trustsKeys(fingerprint uint64) bool {
	return !s.opts.RecoveryParseOnly && fingerprint == s.fingerprint
}

// resolveKeys returns every model's match keys: the persisted ones where
// the trust rule accepts them and they decode, else keys derived on the
// parse path. parsed counts the models that took the parse path. Errors
// are per-model, never short-circuiting: callers apply results in record
// order, so the error they surface is the one a sequential recovery would
// have hit first.
func (s *Store) resolveKeys(ms []persistedModel) (results []keyResult, parsed int) {
	results = make([]keyResult, len(ms))
	var n atomic.Int64
	// Recovery takes no context, so nothing cancels the fan-out and fn
	// never fails: a parse error is that model's result.
	_ = par.Do(context.TODO(), len(ms), func(_, i int) error {
		m := &ms[i]
		if m.hasKeys && s.trustsKeys(m.fingerprint) {
			keys := m.keys
			var err error
			if m.keysBlob != nil {
				// A CRC-valid record whose blob will not decode degrades
				// to the parse path, like a damaged sbsnap-2 keys section.
				keys, err = core.DecodeMatchKeys(m.keysBlob)
			}
			if err == nil {
				results[i].keys = keys
				return nil
			}
		}
		n.Add(1)
		keys, err := parseKeys(m.id, m.sbml, s.opts.Corpus.Match)
		results[i] = keyResult{keys: keys, err: err}
		return nil
	})
	s.parseJobs.Add(n.Load())
	return results, int(n.Load())
}

// parseKeys runs the parse path for one model: parse the canonical
// bytes, cross-check the id the containing record claims, and derive the
// match keys. The parsed model is dropped; the corpus entry parses again
// lazily if a structural use ever needs it.
func parseKeys(id string, sbmlBytes []byte, match core.Options) ([]core.ComponentKey, error) {
	doc, err := sbml.ParseString(string(sbmlBytes))
	if err != nil {
		// ParseString guarantees doc.Model on success, so this covers
		// model-less documents too.
		return nil, fmt.Errorf("parse stored model: %w", err)
	}
	if doc.Model.ID != id {
		return nil, fmt.Errorf("stored bytes carry id %q, record says %q", doc.Model.ID, id)
	}
	return core.MatchKeys(doc.Model, match), nil
}
