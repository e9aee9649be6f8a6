// Package corpus implements a concurrent, sharded in-memory model
// repository with scored top-K matching — the paper's motivating scenario
// of matching a query network against a curated model collection
// (BioModels-style) to find composition partners, industrialized for
// serving.
//
// Each added model is compiled once (core.Compile) and its match keys —
// canonical-synonym ids, Figure 7 MathML patterns, reduced unit vectors —
// are posted into per-shard inverted indexes: one flat posting list per
// key, each posting a pointer into the owning entry's read-only key slice,
// so the index copies no component, kind or tier. Retrieval for a query model
// is then a posting-list walk over the query's own keys instead of an
// O(corpus) pairwise composition scan: only models sharing at least one
// key are ever scored. Scoring builds a sparse component score matrix from
// the shared keys (exact id > synonym-canonical > math-pattern >
// unit-compatible, see core.KeyTier) and runs a greedy maximum-weight
// bipartite assignment with a cutoff, the score-matrix + cutoff workflow
// of repository-scale matchers. Results are ranked top-K Hits with
// per-component evidence.
//
// Sharding and the search worker pool are pure throughput mechanisms:
// a model's score depends only on the query and that model, and the final
// ranking sorts globally, so Search returns identical results at any shard
// or worker count (pinned by the determinism tests).
package corpus

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/trace"
)

// Sentinel errors, matchable with errors.Is, so callers (the HTTP server's
// status mapping in particular) dispatch on identity rather than message
// text.
var (
	// ErrNotFound wraps every "no such model" failure.
	ErrNotFound = errors.New("model not found")
	// ErrDuplicate wraps Add failures on an id already stored.
	ErrDuplicate = errors.New("duplicate model id")
	// ErrPersist wraps every mutation failure whose cause is the durable
	// store (WAL append, snapshot write), not the model itself: the input
	// was valid but could not be made durable, a server-side condition.
	ErrPersist = errors.New("persist failed")
)

// Persister records corpus mutations durably. The corpus calls it under
// the mutated shard's write lock, after validation but before the
// in-memory mutation becomes visible, so the durable log is always a
// prefix of the in-memory state: an error aborts the mutation and the
// caller sees neither the log record nor the map change. Implementations
// must be safe for concurrent calls from different shards.
type Persister interface {
	// PersistAdd logs the addition of a model. sbmlBytes is the canonical
	// serialization of the model exactly as stored (post-clone), so
	// replaying the record reconstructs an identical corpus entry.
	PersistAdd(id string, sbmlBytes []byte) error
	// PersistRemove logs the removal of a stored model.
	PersistRemove(id string) error
}

// KeyPersister is a Persister that can log an addition together with the
// model's match keys, so recovery installs the model without parsing it,
// and that keeps the logged bytes readable: the Doc it returns reads them
// back, so the entry need not hold them. Add uses it whenever the attached
// persister implements it.
type KeyPersister interface {
	Persister
	// PersistAddKeys is PersistAdd plus keys, the model's match keys
	// under the corpus's match options (the slice is read-only). The
	// returned Doc reads sbmlBytes back from the log; the corpus keeps it
	// in their place.
	PersistAddKeys(id string, sbmlBytes []byte, keys []core.ComponentKey) (Doc, error)
}

// Doc is a stored model's canonical serialization, wherever it lives.
// Bytes returns it; the caller must not modify the result. A Doc read
// from disk verifies its bytes before returning them, so a read can fail.
// Implementations other than Bytes must be comparable (Relocate compares
// them with ==); the durable store's file locators are pointers.
type Doc interface {
	Bytes() ([]byte, error)
}

// Bytes is a Doc held in memory. It backs the entries of a corpus with no
// persister or with a plain Persister, which cannot read its log back.
type Bytes []byte

// Bytes returns b.
func (b Bytes) Bytes() ([]byte, error) { return b, nil }

// ModelBlob is one stored model in canonical serialized form, the unit of
// snapshot and replay.
type ModelBlob struct {
	ID string
	// Doc is the model's canonical serialization: the entry's own Doc
	// (for a store-backed corpus, a locator into the store's files), or
	// Bytes rendered for the dump when the entry kept none.
	Doc Doc
	// Keys holds the model's derived match keys — the expensive part of
	// Add — so a snapshot can persist them alongside the canonical bytes
	// and recovery can skip re-derivation (ReplaceAll). The slice is
	// shared read-only with the corpus entry; callers must not mutate it.
	Keys []core.ComponentKey
}

// canonicalBytes is the serialization persisted to the WAL and snapshots.
// It must be stable under write→parse→write so a recovered corpus
// re-persists byte-identical records.
func canonicalBytes(m *sbml.Model) []byte {
	return []byte(sbml.WrapModel(m).String())
}

// Options configures a Corpus.
type Options struct {
	// Shards is the number of repository shards; 0 defaults to 4. More
	// shards reduce lock contention between concurrent Adds and Searches.
	Shards int
	// Workers caps the Search scoring pool; 0 or less means GOMAXPROCS.
	Workers int
	// Match configures compilation and matching (semantics level, synonym
	// table, index kind) for every model in the corpus.
	Match core.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// SearchOptions configures one Search call.
type SearchOptions struct {
	// TopK bounds the number of returned hits; 0 defaults to 5, negative
	// means unbounded.
	TopK int
	// Offset skips that many ranked hits before TopK applies — the
	// pagination window [Offset, Offset+TopK) of the global ranking. It is
	// honored inside the ranking merge, so page N of a search equals the
	// corresponding slice of an unpaginated ranking at every shard and
	// worker count. Negative is treated as 0.
	Offset int
	// Cutoff drops component correspondences whose tier weight is below it
	// (the score-matrix cutoff): 0 keeps every tier, 2.5 keeps only exact
	// and synonym evidence, 5 disables matching entirely.
	Cutoff float64
	// MinScore drops whole hits scoring below it after assignment.
	MinScore float64
}

// Evidence is one component correspondence supporting a Hit: the query
// component was assigned to the hit model's component on the given tier.
type Evidence struct {
	// Query and Target are component ids in the query and corpus model.
	Query  string `json:"query"`
	Target string `json:"target"`
	// Kind is the component family ("species", "reaction", ...).
	Kind string `json:"kind"`
	// Tier names the strongest shared-key tier ("exact-id", "synonym",
	// "math-pattern", "unit-compatible").
	Tier string `json:"tier"`
	// Score is the tier weight this correspondence contributed.
	Score float64 `json:"score"`
}

// Hit is one ranked search result.
type Hit struct {
	// ModelID identifies the corpus model.
	ModelID string `json:"model_id"`
	// Score is the summed weight of the assigned component
	// correspondences; hits are ranked by it, descending.
	Score float64 `json:"score"`
	// Matched counts assigned query components.
	Matched int `json:"matched"`
	// Coverage is Matched over the query's matchable component count.
	Coverage float64 `json:"coverage"`
	// Evidence lists the assignment, sorted by query component id.
	Evidence []Evidence `json:"evidence"`
}

// posting is one inverted-index posting: e.keys[i], a component of a
// corpus model reachable under that key. It aliases the entry's key slice
// rather than copying component, kind and tier out of it.
type posting struct {
	e *entry
	i int32
}

// entry is one stored model: its posted keys, either its compiled form or
// a Doc for its canonical serialization, and a lazily compiled simulation
// engine.
//
// Search needs only the keys — scoring is a pure function of the shared
// postings (score.go). An entry of an in-memory corpus keeps the compiled
// model Add built and has no Doc. Every other entry — added under a
// persister, recovered, replicated or bootstrapped — keeps only its Doc,
// and the compiled model is materialized from it on first structural use
// (Get, ComposeWith, Simulate, CheckProperty). Under the durable store the
// Doc is a locator, which reads the bytes from the WAL segment or snapshot
// that holds them and re-verifies their CRC on every read, so such an
// entry holds no SBML; a Doc that fails its check leaves the entry
// searchable but structurally unusable, and its bytes are never parsed.
type entry struct {
	id string
	// keys are the model's match keys, read-only once installed: the
	// shard's postings point into this slice by index.
	keys []core.ComponentKey
	// doc is the canonical serialization: nil for an entry added with no
	// persister attached (it keeps cm instead), Bytes under a plain
	// Persister, otherwise the store's locator. It backs the lazy compile
	// and DumpConsistent — canonical bytes are pinned stable under
	// write→parse→write, so emitting them verbatim is byte-identical to
	// re-rendering the parsed model. Relocate swaps it while readers run,
	// hence the atomic; see loadDoc.
	doc atomic.Pointer[Doc]
	// match holds the corpus match options the keys were derived under,
	// needed to compile lazily with identical semantics.
	match core.Options

	cmOnce sync.Once
	cm     *core.CompiledModel
	cmErr  error

	engOnce sync.Once
	eng     *sim.Engine
	engErr  error
}

// compiled returns the entry's compiled model, materializing it from the
// stored canonical bytes on first use. Entries added to an in-memory corpus
// pre-fill cm and never parse here.
func (e *entry) compiled() (*core.CompiledModel, error) {
	e.cmOnce.Do(func() {
		if e.cm != nil {
			return
		}
		b, err := e.loadDoc().Bytes()
		if err != nil {
			e.cmErr = fmt.Errorf("corpus: lazy compile %q: %w", e.id, err)
			return
		}
		doc, err := sbml.ParseString(string(b))
		if err != nil {
			e.cmErr = fmt.Errorf("corpus: lazy compile %q: parse stored bytes: %w", e.id, err)
			return
		}
		e.cm, e.cmErr = core.Compile(doc.Model, e.match)
	})
	return e.cm, e.cmErr
}

// loadDoc returns the entry's Doc, nil if it has none.
func (e *entry) loadDoc() Doc {
	if p := e.doc.Load(); p != nil {
		return *p
	}
	return nil
}

// setDoc replaces the entry's Doc.
func (e *entry) setDoc(d Doc) {
	if d != nil {
		e.doc.Store(&d)
	}
}

// newEntry returns an uninstalled entry under the corpus's match options.
func (c *Corpus) newEntry(id string, keys []core.ComponentKey, doc Doc) *entry {
	e := &entry{id: id, keys: keys, match: c.opts.Match}
	e.setDoc(doc)
	return e
}

// engine returns the entry's simulation engine, compiling it on first use.
// The engine is immutable and concurrency-safe, so every later simulation
// or model-checking request on this model reuses it; compilation is paid
// once per corpus entry, not once per request.
func (e *entry) engine() (*sim.Engine, error) {
	cm, err := e.compiled()
	if err != nil {
		return nil, err
	}
	e.engOnce.Do(func() { e.eng, e.engErr = sim.Compile(cm.Model()) })
	return e.eng, e.engErr
}

// shard is one lock domain of the repository: a slice of the entries plus
// the inverted index over their match keys.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	// inv maps a match key to the postings of every model in this shard
	// that emits it. A model's postings under one key are contiguous and
	// in its key order (install appends them together); lists are never
	// empty (removeLocked deletes a list it empties).
	inv map[string][]posting
}

// Corpus is the sharded repository. All methods are safe for concurrent
// use.
type Corpus struct {
	opts   Options
	shards []*shard
	// persister, when non-nil, is called under the shard write lock before
	// every mutation becomes visible; see SetPersister.
	persister Persister
}

// New returns an empty corpus.
func New(opts Options) *Corpus {
	opts = opts.withDefaults()
	c := &Corpus{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*entry),
			inv:     make(map[string][]posting),
		}
	}
	return c
}

// SetPersister attaches the durable-store hook. It must be called before
// the corpus is shared between goroutines (the store attaches it at Open,
// after recovery replay and before returning the corpus); a nil persister
// keeps the corpus purely in-memory.
func (c *Corpus) SetPersister(p Persister) { c.persister = p }

// Options returns the options the corpus was built with.
func (c *Corpus) Options() Options { return c.opts }

// shardFor maps a model id to its home shard. The assignment affects only
// lock distribution, never results.
func (c *Corpus) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Add compiles the model and stores it under its model id. The input is
// cloned, never referenced. Empty and duplicate ids are errors. With no
// persister attached the entry keeps the compiled model; with one it keeps
// only the Doc the persister returns and compiles again on first
// structural use, as a recovered entry does.
func (c *Corpus) Add(m *sbml.Model) (string, error) {
	if m == nil {
		return "", fmt.Errorf("corpus: Add requires a non-nil model")
	}
	if m.ID == "" {
		return "", fmt.Errorf("corpus: model has no id")
	}
	cm, err := core.Compile(m, c.opts.Match)
	if err != nil {
		return "", err
	}
	e := c.newEntry(m.ID, cm.MatchKeys(), nil)
	// Serialize outside the lock: the blob is a pure function of the
	// compiled (cloned) model, and holding the shard lock across an XML
	// render would stall that shard's readers for no consistency gain.
	var blob []byte
	if c.persister == nil {
		e.cm = cm
	} else {
		blob = canonicalBytes(cm.Model())
	}
	sh := c.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.entries[m.ID]; dup {
		return "", fmt.Errorf("corpus: model %q already present: %w", m.ID, ErrDuplicate)
	}
	if c.persister != nil {
		// Log before applying: an append failure leaves both the log and
		// the in-memory state without the model. The persisted bytes are
		// the stored model's exact canonical form, so replay reconstructs
		// exactly what this corpus stores; the entry keeps the Doc that
		// reads them back (the persister's locator when it can log keys,
		// else the bytes), so snapshots emit them without re-rendering.
		var doc Doc
		if kp, ok := c.persister.(KeyPersister); ok {
			doc, err = kp.PersistAddKeys(m.ID, blob, e.keys)
		} else {
			doc, err = Bytes(blob), c.persister.PersistAdd(m.ID, blob)
		}
		if err != nil {
			return "", fmt.Errorf("corpus: persist add %q: %w", m.ID, err)
		}
		e.setDoc(doc)
	}
	sh.install(e)
	return m.ID, nil
}

// install publishes an entry and its inverted-index postings; the caller
// holds the shard write lock. Each key string the shard already posts is
// swapped for the copy its posting list holds, so the shard keeps one
// string per distinct key however many entries emit it. The entry's keys
// are still private here: installing is what makes them read-only.
func (sh *shard) install(e *entry) {
	sh.entries[e.id] = e
	for i := range e.keys {
		k := &e.keys[i]
		list := sh.inv[k.Key]
		if len(list) > 0 {
			k.Key = list[0].e.keys[list[0].i].Key
		}
		sh.inv[k.Key] = append(list, posting{e: e, i: int32(i)})
	}
}

// PrecompiledModel is one model of a ReplaceAll call: the model's
// canonical serialization plus the derived state a plain Add would have
// computed from it. Doc must read back the model's canonical serialization
// (what a previous Add persisted) and Keys must be its match keys under the
// corpus's exact match options — the durable store guards both with CRCs
// and an options fingerprint before trusting them, and its Docs are
// locators into its files, re-verified on every read. The entry compiles
// lazily from Doc on first structural use; Search works off Keys alone.
type PrecompiledModel struct {
	ID   string
	Doc  Doc
	Keys []core.ComponentKey
}

// Remove deletes a model and all its postings; it reports whether the
// model was present. With a persister attached the removal is logged
// before it is applied, and a log failure (wrapping ErrPersist) leaves
// the model in place.
func (c *Corpus) Remove(id string) (bool, error) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[id]; !ok {
		return false, nil
	}
	if c.persister != nil {
		if err := c.persister.PersistRemove(id); err != nil {
			return false, fmt.Errorf("corpus: persist remove %q: %w", id, err)
		}
	}
	sh.removeLocked(id)
	return true, nil
}

// removeLocked deletes an entry, if present, and its postings; the caller
// holds the shard write lock. Filtering keeps the other models' postings
// in order, and a list left empty is deleted.
func (sh *shard) removeLocked(id string) {
	e, ok := sh.entries[id]
	if !ok {
		return
	}
	delete(sh.entries, id)
	for _, k := range e.keys {
		list := slices.DeleteFunc(sh.inv[k.Key], func(p posting) bool { return p.e == e })
		if len(list) == 0 {
			delete(sh.inv, k.Key)
		} else {
			sh.inv[k.Key] = list
		}
	}
}

// DumpConsistent returns every stored model in canonical serialized form,
// sorted by id, under a corpus-wide read lock: every shard is read-locked
// before the first entry is serialized, so no mutation can be in flight
// (mutations hold a shard write lock across both the persister call and
// the map change). before, if non-nil, runs while all locks are held —
// the store uses it to capture its WAL append position at a point that is
// provably consistent with the dumped state, which is what makes a
// snapshot's "records ≤ LastSeq are included" claim true.
func (c *Corpus) DumpConsistent(before func()) []ModelBlob {
	blobs, _ := c.DumpConsistentContext(context.Background(), before)
	return blobs
}

// DumpConsistentContext is DumpConsistent honoring cancellation: ctx is
// checked between entries while the per-model XML renders run (the dump's
// units of work), so a snapshot of a large corpus can be abandoned without
// holding every shard read lock for its full duration. A cancelled dump
// returns ctx's error and no blobs; the corpus is read-locked only, so no
// state needs undoing.
func (c *Corpus) DumpConsistentContext(ctx context.Context, before func()) ([]ModelBlob, error) {
	for _, sh := range c.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range c.shards {
			sh.mu.RUnlock()
		}
	}()
	if before != nil {
		before()
	}
	var blobs []ModelBlob
	for _, sh := range c.shards {
		for id, e := range sh.entries {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Entries with a Doc (persisted adds, recovered entries) dump
			// it as is — byte-identical to a re-render by the
			// canonical-bytes stability invariant; the dump reads no
			// bytes, and never forces a lazy entry to compile.
			blob := ModelBlob{ID: id, Doc: e.loadDoc(), Keys: e.keys}
			if blob.Doc == nil {
				blob.Doc = Bytes(canonicalBytes(e.cm.Model()))
			}
			blobs = append(blobs, blob)
		}
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].ID < blobs[j].ID })
	return blobs, nil
}

// Relocate re-points entries at new copies of their documents — the
// durable store calls it after compaction writes a snapshot, before it
// deletes the files the old Docs read from. For each i, the entry stored
// under blobs[i].ID switches to docs[i] if it still holds blobs[i].Doc (a
// model removed or replaced since the dump keeps what it has). In-memory
// Bytes are not relocated: they read from no file. Each shard is
// write-locked while its entries are swapped; a lazy compile already
// reading an old Doc finishes on it.
func (c *Corpus) Relocate(blobs []ModelBlob, docs []Doc) {
	for i, b := range blobs {
		if _, inMemory := b.Doc.(Bytes); inMemory {
			continue
		}
		sh := c.shardFor(b.ID)
		sh.mu.Lock()
		if e, ok := sh.entries[b.ID]; ok && e.loadDoc() == b.Doc {
			e.setDoc(docs[i])
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of stored models.
func (c *Corpus) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns the stored model ids, sorted.
func (c *Corpus) IDs() []string {
	var ids []string
	for _, sh := range c.shards {
		sh.mu.RLock()
		for id := range sh.entries {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Get returns a deep copy of a stored model, safe for the caller to
// mutate.
func (c *Corpus) Get(id string) (*sbml.Model, bool) {
	e, ok := c.lookup(id)
	if !ok {
		return nil, false
	}
	cm, err := e.compiled()
	if err != nil {
		// Unreachable for entries of an in-memory corpus. A lazy entry's
		// bytes are canonical output of a previous Add, which re-parses by
		// construction; what fails here is a Doc whose bytes rotted on
		// disk and failed their CRC, and a model that cannot be read back
		// is reported absent.
		return nil, false
	}
	return cm.Snapshot(), true
}

// Has reports whether a model is stored under id.
func (c *Corpus) Has(id string) bool {
	_, ok := c.lookup(id)
	return ok
}

func (c *Corpus) lookup(id string) (*entry, bool) {
	sh := c.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[id]
	return e, ok
}

// ComposeWith merges the query model into a copy of the stored model under
// the corpus match options — the "find a composition partner, then
// compose" workflow. Neither the stored model nor the query is mutated.
func (c *Corpus) ComposeWith(id string, query *sbml.Model) (*core.Result, error) {
	return c.ComposeWithContext(context.Background(), id, query)
}

// ComposeWithContext is ComposeWith honoring cancellation: the pairwise
// composition checks ctx between component families. All compiled state is
// private to the call (the stored model is never mutated), so a cancelled
// compose leaves the corpus untouched.
func (c *Corpus) ComposeWithContext(ctx context.Context, id string, query *sbml.Model) (*core.Result, error) {
	e, ok := c.lookup(id)
	if !ok {
		return nil, fmt.Errorf("corpus: no model %q: %w", id, ErrNotFound)
	}
	cm, err := e.compiled()
	if err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("compose")
	res, err := core.ComposeContext(ctx, cm.Model(), query, c.opts.Match)
	sp.End()
	return res, err
}

// SimulateODE integrates a stored model on its cached engine.
func (c *Corpus) SimulateODE(id string, opts sim.Options) (*trace.Trace, error) {
	return c.SimulateODEContext(context.Background(), id, opts)
}

// SimulateODEContext is SimulateODE honoring cancellation: the integrator
// checks ctx between output steps.
func (c *Corpus) SimulateODEContext(ctx context.Context, id string, opts sim.Options) (*trace.Trace, error) {
	e, ok := c.lookup(id)
	if !ok {
		return nil, fmt.Errorf("corpus: no model %q: %w", id, ErrNotFound)
	}
	eng, err := e.engine()
	if err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("simulate")
	tr, err := eng.ODECtx(ctx, opts)
	sp.End()
	return tr, err
}

// SimulateSSA runs Gillespie's direct method on a stored model's cached
// engine.
func (c *Corpus) SimulateSSA(id string, opts sim.Options) (*trace.Trace, error) {
	return c.SimulateSSAContext(context.Background(), id, opts)
}

// SimulateSSAContext is SimulateSSA honoring cancellation: the event loop
// checks ctx periodically mid-run.
func (c *Corpus) SimulateSSAContext(ctx context.Context, id string, opts sim.Options) (*trace.Trace, error) {
	e, ok := c.lookup(id)
	if !ok {
		return nil, fmt.Errorf("corpus: no model %q: %w", id, ErrNotFound)
	}
	eng, err := e.engine()
	if err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("simulate")
	tr, err := eng.SSACtx(ctx, opts)
	sp.End()
	return tr, err
}

// CheckProperty evaluates a temporal-logic formula (mc2 syntax) over a
// deterministic simulation of a stored model, reusing the cached engine.
func (c *Corpus) CheckProperty(id string, formula string, opts sim.Options) (bool, error) {
	return c.CheckPropertyContext(context.Background(), id, formula, opts)
}

// CheckPropertyContext is CheckProperty honoring cancellation during the
// underlying ODE simulation.
func (c *Corpus) CheckPropertyContext(ctx context.Context, id string, formula string, opts sim.Options) (bool, error) {
	f, err := mc2.Parse(formula)
	if err != nil {
		return false, err
	}
	e, ok := c.lookup(id)
	if !ok {
		return false, fmt.Errorf("corpus: no model %q: %w", id, ErrNotFound)
	}
	eng, err := e.engine()
	if err != nil {
		return false, err
	}
	sp := obs.FromContext(ctx).Start("simulate")
	tr, err := eng.ODECtx(ctx, opts)
	sp.End()
	if err != nil {
		return false, err
	}
	defer obs.FromContext(ctx).Start("check").End()
	return mc2.Check(tr, f)
}

// CompiledQuery is a query compiled once for repeated searches: the match
// keys and the matchable-component denominator, everything ranking
// consumes. It is immutable and safe to share across concurrent
// SearchCompiled calls, and valid only against the corpus that compiled
// it (the keys depend on its match options).
type CompiledQuery struct {
	keys  []core.ComponentKey
	denom int
}

// CompileQuery compiles a query model for SearchCompiled. Callers that
// search with the same query repeatedly hold the result and skip
// compilation on every later call; the HTTP server caches it keyed on raw
// request bytes.
func (c *Corpus) CompileQuery(query *sbml.Model) (*CompiledQuery, error) {
	if query == nil {
		return nil, fmt.Errorf("corpus: CompileQuery requires a non-nil query")
	}
	qcm, err := core.Compile(query, c.opts.Match)
	if err != nil {
		return nil, err
	}
	return &CompiledQuery{keys: qcm.MatchKeys(), denom: qcm.MatchableComponents()}, nil
}

// SearchCompiled ranks the corpus against an already compiled query; see
// Search. Rankings are computed fresh against the live corpus on every
// call, so SearchCompiled(CompileQuery(q)) equals Search(q) exactly.
func (c *Corpus) SearchCompiled(cq *CompiledQuery, opts SearchOptions) ([]Hit, error) {
	return c.SearchCompiledContext(context.Background(), cq, opts)
}

// SearchCompiledContext is SearchCompiled honoring cancellation, with
// SearchContext's exact semantics.
func (c *Corpus) SearchCompiledContext(ctx context.Context, cq *CompiledQuery, opts SearchOptions) ([]Hit, error) {
	if cq == nil {
		return nil, fmt.Errorf("corpus: SearchCompiled requires a non-nil compiled query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.rank(ctx, cq.keys, cq.denom, opts)
}

// Search ranks the corpus models against the query. Candidate retrieval
// walks the query's match keys through each shard's inverted index, so
// models sharing no key with the query are never touched; candidates are
// then scored concurrently (greedy maximum-weight assignment over the
// shared-key score matrix) and merged into one global ranking: score
// descending, model id ascending on ties, windowed to [Offset,
// Offset+TopK).
func (c *Corpus) Search(query *sbml.Model, opts SearchOptions) ([]Hit, error) {
	return c.SearchContext(context.Background(), query, opts)
}

// SearchContext is Search honoring cancellation: ctx is checked between
// shards during retrieval and by every scoring worker between candidates.
// A cancelled search drains its worker pool (nothing outlives the call),
// leaves the corpus untouched — Search never mutates shared state, so a
// follow-up query behaves as if the cancelled one never ran — and returns
// ctx's error. An uncancelled context ranks identically to Search at every
// shard and worker count.
func (c *Corpus) SearchContext(ctx context.Context, query *sbml.Model, opts SearchOptions) ([]Hit, error) {
	if query == nil {
		return nil, fmt.Errorf("corpus: Search requires a non-nil query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("compile")
	cq, err := c.CompileQuery(query)
	sp.End()
	if err != nil {
		return nil, err
	}
	return c.rank(ctx, cq.keys, cq.denom, opts)
}

// rank is the shared post-compile body of SearchContext and
// SearchCompiledContext: retrieval, concurrent scoring and the
// deterministic global merge, all a pure function of the query's keys and
// denominator.
func (c *Corpus) rank(ctx context.Context, qkeys []core.ComponentKey, denom int, opts SearchOptions) ([]Hit, error) {
	if opts.TopK == 0 {
		opts.TopK = 5
	}
	if opts.Offset < 0 {
		opts.Offset = 0
	}

	// Retrieval: accumulate, per candidate model, the score-matrix cells
	// its postings share with the query. The per-model cell set is the
	// union over all shards of that model's postings, so shard layout
	// cannot influence it.
	retrieveSpan := obs.FromContext(ctx).Start("retrieve")
	cells := make(map[string]*candidate)
	for _, sh := range c.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sh.mu.RLock()
		for _, qk := range qkeys {
			if qk.Tier.Weight() < opts.Cutoff {
				continue
			}
			var last *entry
			var cand *candidate
			for _, p := range sh.inv[qk.Key] {
				if p.e != last {
					last = p.e
					cand = cells[p.e.id]
					if cand == nil {
						cand = &candidate{modelID: p.e.id}
						cells[p.e.id] = cand
					}
				}
				cand.add(qk, p.e.keys[p.i])
			}
		}
		sh.mu.RUnlock()
	}
	retrieveSpan.End()
	if len(cells) == 0 {
		return nil, nil
	}

	// Scoring: fan the candidates out across the worker pool. Candidates
	// are ordered by id first so the result slice layout is deterministic;
	// each score depends only on the candidate's own cells. Workers check
	// ctx between candidates and bail early when it fires; the partial
	// hits slice is then discarded.
	scoreSpan := obs.FromContext(ctx).Start("score")
	cands := make([]*candidate, 0, len(cells))
	for _, cand := range cells {
		cands = append(cands, cand)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].modelID < cands[j].modelID })
	hits := make([]Hit, len(cands))
	workers := c.opts.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cands); i += workers {
				if ctx.Err() != nil {
					return
				}
				hits[i] = cands[i].assign(denom, opts.Cutoff)
			}
		}(w)
	}
	wg.Wait()
	scoreSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deterministic global merge: drop empty/sub-threshold hits, then
	// rank and cut the pagination window.
	defer obs.FromContext(ctx).Start("merge").End()
	ranked := hits[:0]
	for _, h := range hits {
		if h.Matched == 0 || h.Score < opts.MinScore {
			continue
		}
		ranked = append(ranked, h)
	}
	return append([]Hit(nil), RankWindow(ranked, opts.Offset, opts.TopK)...), nil
}

// RankWindow sorts hits in place into the global ranking order — score
// descending, model id ascending, a total order since ids are unique —
// and returns the page [offset, offset+limit) of it, nil when empty; a
// negative limit means unbounded. A corpus and the cluster gateway both
// cut their pages here, so the same hits give the same page whatever
// shard, worker or node produced them.
func RankWindow(hits []Hit, offset, limit int) []Hit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ModelID < hits[j].ModelID
	})
	if offset > 0 {
		if offset >= len(hits) {
			return nil
		}
		hits = hits[offset:]
	}
	if limit >= 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}
