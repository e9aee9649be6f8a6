// Package corpus implements a concurrent, sharded in-memory model
// repository with scored top-K matching — the paper's motivating scenario
// of matching a query network against a curated model collection
// (BioModels-style) to find composition partners, industrialized for
// serving.
//
// Each added model's match keys — canonical-synonym ids, Figure 7 MathML
// patterns, reduced unit vectors (core.MatchKeys) — are posted into
// per-shard inverted indexes. The resident index holds no pointers: each
// shard keeps a dictionary giving every distinct key string a uint32
// ordinal, found through an open-addressing table of 4-byte slots
// (keytable.go), entries live in a slab addressed by uint32 slots, a
// posting is the 8-byte pair (slot, key index), and an entry's keys are
// 12-byte (ordinal, component index, kind, tier) records. The collector
// has nothing to scan in the table, postings or keys, and an ordinal or
// slot freed by a removal is reused. Retrieval for a query model is then
// a posting-list walk over the query's own keys instead of an O(corpus)
// pairwise composition scan: only models sharing at least one key are
// ever scored.
// Scoring builds a sparse component score matrix from the shared keys
// (exact id > synonym-canonical > math-pattern > unit-compatible, see
// core.KeyTier) and runs a greedy maximum-weight bipartite assignment with
// a cutoff, the score-matrix + cutoff workflow of repository-scale
// matchers. Results are ranked top-K Hits with per-component evidence.
//
// Postings stay resident, documents do not. An entry holds no model, only
// a Doc for the model's canonical serialization: a locator into the
// durable store's files for a store-backed corpus, the bytes deflated in
// memory otherwise. The model is parsed from the Doc on first structural
// use (Get, ComposeWith, Simulate, CheckProperty); Search never parses.
//
// Sharding and the par.Do fan-out that scores candidates on one worker
// per proc are pure throughput mechanisms: a model's score depends only
// on the query and that model, and the final ranking sorts globally, so
// Search returns identical results at any shard count and GOMAXPROCS
// (pinned by the determinism tests).
package corpus

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/par"
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
	// serialization of the model exactly as stored, so replaying the
	// record reconstructs an identical corpus entry.
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

// Bytes is a Doc held in memory as is. It backs the entries added under a
// plain Persister, which cannot read its log back, and those the durable
// store recovers from log records that carry their SBML.
type Bytes []byte

// Bytes returns b.
func (b Bytes) Bytes() ([]byte, error) { return b, nil }

// deflated is the Doc of a model added with no persister: its canonical
// serialization deflated at BestSpeed, several times smaller than the
// bytes, and n, their length, so Bytes inflates into an exact-size buffer.
type deflated struct {
	n int
	z []byte
}

// deflater is a pooled flate writer and the buffer it writes to:
// flate.NewWriter allocates about 1.2 MB.
type deflater struct {
	w   *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := &deflater{}
	d.w, _ = flate.NewWriter(&d.buf, flate.BestSpeed) // BestSpeed is a valid level
	return d
}}

// deflate renders m's canonical serialization straight into a pooled
// flate writer and returns it as a deflated Doc.
func deflate(m *sbml.Model) *deflated {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	n := writeCanonical(d.w, m)
	d.w.Close()
	return &deflated{n: n, z: bytes.Clone(d.buf.Bytes())}
}

// Bytes inflates d. A stream that is corrupt, or that does not hold
// exactly the recorded length, is an error.
func (d *deflated) Bytes() ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(d.z))
	defer r.Close()
	b := make([]byte, d.n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("corpus: inflate document: %w", err)
	}
	if k, err := r.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		return nil, fmt.Errorf("corpus: inflate document: stream does not end at its %d bytes (%v)", d.n, err)
	}
	return b, nil
}

// ModelBlob is one stored model in canonical serialized form, the unit of
// snapshot and replay.
type ModelBlob struct {
	ID string
	// Doc is the model's canonical serialization: the entry's own Doc,
	// for a store-backed corpus a locator into the store's files.
	Doc Doc
	// Keys holds the model's derived match keys — the expensive part of
	// Add — so a snapshot can persist them alongside the canonical bytes
	// and recovery can skip re-derivation (ReplaceAll). The dump builds
	// them from the entry's compact keys; the caller owns the slice.
	Keys []core.ComponentKey
}

// canonicalBytes is the serialization persisted to the WAL and snapshots.
// It must be stable under write→parse→write so a recovered corpus
// re-persists byte-identical records.
func canonicalBytes(m *sbml.Model) []byte {
	var b bytes.Buffer
	writeCanonical(&b, m)
	return b.Bytes()
}

// writeCanonical writes m's canonical serialization to w, a bytes.Buffer
// or a flate writer over one, neither of which can fail, and returns its
// length.
func writeCanonical(w io.Writer, m *sbml.Model) int {
	n, _ := sbml.WrapModel(m).WriteTo(w)
	return int(n)
}

// Options configures a Corpus.
type Options struct {
	// Shards is the number of repository shards; 0 defaults to 4. More
	// shards reduce lock contention between concurrent Adds and Searches.
	Shards int
	// Match configures compilation and matching (semantics level, synonym
	// table, index kind) for every model in the corpus.
	Match core.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
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

// posting is one inverted-index posting: key i of the entry in slab slot
// slot. It holds no pointer, so the collector never scans a posting list
// and appending to or filtering one takes no write barrier.
type posting struct {
	slot uint32
	i    uint32
}

// keyRef is one installed match key of an entry: ord names the key string
// in the shard's dictionary, comp the component in the entry's component
// table, kind is the key's core.KindCode and tier its core.KeyTier.
type keyRef struct {
	ord, comp  uint32
	kind, tier uint8
}

// entry is one stored model: its compact keys and component ids, a Doc
// for its canonical serialization, and the model and simulation engine,
// each built on first use.
//
// Search needs only the keys and component ids — scoring is a pure
// function of the shared postings (score.go). Every entry, whether added,
// recovered, replicated or bootstrapped, keeps only its Doc until a
// structural use (Get, ComposeWith, Simulate, CheckProperty) parses the
// model from it. With no persister the Doc is the bytes deflated in
// memory. Under the durable store it is a locator, which reads the bytes
// from the WAL segment or snapshot that holds them and re-verifies their
// CRC on every read, so such an entry holds no SBML. A Doc that cannot be
// read back leaves the entry searchable but structurally unusable, and
// its bytes are never parsed.
type entry struct {
	id string
	// keys are the model's match keys in their installed order, read-only
	// once installed: the shard's postings name them by index.
	keys []keyRef
	// comps holds the entry's distinct component ids, concatenated in the
	// order the keys first name them; compEnd[c] is the end offset of
	// component c (see comp).
	comps   string
	compEnd []uint32
	// doc is the canonical serialization: deflated with no persister
	// attached, Bytes under a plain Persister, otherwise the store's
	// locator. It backs the lazy parse and DumpConsistent — canonical
	// bytes are pinned stable under write→parse→write, so emitting them
	// verbatim is byte-identical to re-rendering the parsed model.
	// Relocate swaps it while readers run, hence the atomic; see loadDoc.
	doc atomic.Pointer[Doc]

	modelOnce sync.Once
	model     *sbml.Model
	modelErr  error

	engOnce sync.Once
	eng     *sim.Engine
	engErr  error
}

// comp returns the id of the entry's component c.
func (e *entry) comp(c uint32) string {
	lo := uint32(0)
	if c > 0 {
		lo = e.compEnd[c-1]
	}
	return e.comps[lo:e.compEnd[c]]
}

// loadModel returns the entry's model, parsing it from the stored
// canonical bytes on first use. The model is shared: callers read it and
// never mutate it.
func (e *entry) loadModel() (*sbml.Model, error) {
	e.modelOnce.Do(func() {
		b, err := e.loadDoc().Bytes()
		if err != nil {
			e.modelErr = fmt.Errorf("corpus: lazy parse %q: %w", e.id, err)
			return
		}
		doc, err := sbml.ParseString(string(b))
		if err != nil {
			e.modelErr = fmt.Errorf("corpus: lazy parse %q: parse stored bytes: %w", e.id, err)
			return
		}
		e.model = doc.Model
	})
	return e.model, e.modelErr
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

// newEntry returns an uninstalled entry.
func newEntry(id string, doc Doc) *entry {
	e := &entry{id: id}
	e.setDoc(doc)
	return e
}

// engine returns the entry's simulation engine, compiling it on first use.
// The engine is immutable and concurrency-safe, so every later simulation
// or model-checking request on this model reuses it; compilation is paid
// once per corpus entry, not once per request.
func (e *entry) engine() (*sim.Engine, error) {
	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	e.engOnce.Do(func() { e.eng, e.engErr = sim.Compile(m) })
	return e.eng, e.engErr
}

// shard is one lock domain of the repository: a slice of the entries plus
// the inverted index over their match keys.
type shard struct {
	mu sync.RWMutex
	// entries maps a model id to its slot in slab; slab holds nil at the
	// free slots listed in freeSlots.
	entries   map[string]uint32
	slab      []*entry
	freeSlots []uint32
	// The key dictionary: ords finds the ordinal of every key some entry
	// of this shard emits (a keyTable, which compares probes against
	// keyStr), keyStr maps the ordinal back, and lists[ord] holds the
	// key's postings. A model's postings under one key are contiguous and
	// in its key order (install appends them together). A list is never
	// empty: the removal that empties it frees its ordinal onto freeOrds,
	// with keyStr "" and lists nil there, so the dictionary never outgrows
	// the shard's live distinct keys.
	ords     keyTable
	keyStr   []string
	lists    [][]posting
	freeOrds []uint32
	// compIdx is install's scratch map from component id to index.
	compIdx map[string]uint32
}

func newShard() *shard {
	sh := &shard{}
	sh.reset()
	return sh
}

// reset empties the shard; the caller holds its write lock (or owns it).
func (sh *shard) reset() {
	sh.entries, sh.slab, sh.freeSlots = make(map[string]uint32), nil, nil
	sh.ords, sh.keyStr, sh.lists, sh.freeOrds = keyTable{}, nil, nil, nil
	sh.compIdx = make(map[string]uint32)
}

// get returns the entry stored under id; the caller holds the shard lock.
func (sh *shard) get(id string) (*entry, bool) {
	slot, ok := sh.entries[id]
	if !ok {
		return nil, false
	}
	return sh.slab[slot], true
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
		c.shards[i] = newShard()
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
func (c *Corpus) shardFor(id string) *shard { return c.shards[c.shardIndex(id)] }

// shardIndex is the index in c.shards of id's home shard.
func (c *Corpus) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(c.shards)))
}

// Add derives the model's match keys and stores it under its model id.
// The input is never referenced after Add returns. Empty and duplicate ids
// are errors. The entry keeps only a Doc for the model's canonical bytes,
// deflated in memory with no persister attached, else the Doc the
// persister returns, and parses it again on first structural use, as a
// recovered entry does.
func (c *Corpus) Add(m *sbml.Model) (string, error) {
	if m == nil {
		return "", fmt.Errorf("corpus: Add requires a non-nil model")
	}
	if m.ID == "" {
		return "", fmt.Errorf("corpus: model has no id")
	}
	keys := core.MatchKeys(m, c.opts.Match)
	// Serialize outside the lock: it is a pure function of the model, and
	// holding the shard lock across an XML render would stall that
	// shard's readers for no consistency gain.
	var doc Doc
	var blob []byte
	if c.persister == nil {
		doc = deflate(m)
	} else {
		blob = canonicalBytes(m)
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
		// the model's exact canonical form, so replay reconstructs exactly
		// what this corpus stores; the entry keeps the Doc that reads them
		// back (the persister's locator when it can log keys, else the
		// bytes), so snapshots emit them without re-rendering.
		var err error
		if kp, ok := c.persister.(KeyPersister); ok {
			doc, err = kp.PersistAddKeys(m.ID, blob, keys)
		} else {
			doc, err = Bytes(blob), c.persister.PersistAdd(m.ID, blob)
		}
		if err != nil {
			return "", fmt.Errorf("corpus: persist add %q: %w", m.ID, err)
		}
	}
	sh.install(newEntry(m.ID, doc), keys)
	return m.ID, nil
}

// install publishes an entry and its inverted-index postings, converting
// keys to the entry's compact form; the caller holds the shard write lock.
// Every kind is a core Kind constant and every tier in range, as
// MatchKeys and DecodeMatchKeys guarantee. The entry keeps no reference
// into keys, and each key string enters the shard's dictionary once,
// however many entries emit it.
func (sh *shard) install(e *entry, keys []core.ComponentKey) {
	var slot uint32
	if n := len(sh.freeSlots); n > 0 {
		slot = sh.freeSlots[n-1]
		sh.freeSlots = sh.freeSlots[:n-1]
		sh.slab[slot] = e
	} else {
		slot = uint32(len(sh.slab))
		sh.slab = append(sh.slab, e)
	}
	sh.entries[e.id] = slot

	e.keys = make([]keyRef, len(keys))
	buf, ends := make([]byte, 0, 512), make([]uint32, 0, 64)
	for i, k := range keys {
		// MatchKeys emits a component's keys together, so the map is
		// consulted once per component; it also joins the keys of an id
		// that two component families share, as the score matrix does.
		var comp uint32
		if i > 0 && k.Component == keys[i-1].Component {
			comp = e.keys[i-1].comp
		} else if c, seen := sh.compIdx[k.Component]; seen {
			comp = c
		} else {
			comp = uint32(len(ends))
			sh.compIdx[k.Component] = comp
			buf = append(buf, k.Component...)
			ends = append(ends, uint32(len(buf)))
		}
		at, ord, ok := sh.ords.find(sh.keyStr, k.Key, keyHash(k.Key))
		if !ok {
			if n := len(sh.freeOrds); n > 0 {
				ord = sh.freeOrds[n-1]
				sh.freeOrds = sh.freeOrds[:n-1]
				sh.keyStr[ord] = k.Key
			} else {
				ord = uint32(len(sh.keyStr))
				sh.keyStr = append(sh.keyStr, k.Key)
				sh.lists = append(sh.lists, nil)
			}
			sh.ords.insert(sh.keyStr, at, ord)
		}
		kind, _ := core.KindCode(k.Kind)
		e.keys[i] = keyRef{ord: ord, comp: comp, kind: kind, tier: uint8(k.Tier)}
		sh.lists[ord] = append(sh.lists[ord], posting{slot: slot, i: uint32(i)})
	}
	clear(sh.compIdx)
	e.comps, e.compEnd = string(buf), slices.Clone(ends)
}

// componentKeys rebuilds the keys e was installed with; the caller holds
// the shard lock.
func (sh *shard) componentKeys(e *entry) []core.ComponentKey {
	keys := make([]core.ComponentKey, len(e.keys))
	for i, k := range e.keys {
		keys[i] = core.ComponentKey{Component: e.comp(k.comp), Kind: core.KindName(k.kind), Key: sh.keyStr[k.ord], Tier: core.KeyTier(k.tier)}
	}
	return keys
}

// PrecompiledModel is one model of a ReplaceAll call: the model's
// canonical serialization plus the derived state a plain Add would have
// computed from it. Doc must read back the model's canonical serialization
// (what a previous Add persisted) and Keys must be its match keys under the
// corpus's exact match options — the durable store guards both with CRCs
// and an options fingerprint before trusting them, and its Docs are
// locators into its files, re-verified on every read. The entry parses
// Doc lazily on first structural use; Search works off Keys alone.
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
// in order. A list left empty frees its ordinal and the entry frees its
// slot, each for the next install to reuse.
func (sh *shard) removeLocked(id string) {
	slot, ok := sh.entries[id]
	if !ok {
		return
	}
	e := sh.slab[slot]
	delete(sh.entries, id)
	sh.slab[slot] = nil
	sh.freeSlots = append(sh.freeSlots, slot)
	for _, k := range e.keys {
		list := sh.lists[k.ord]
		if len(list) == 0 {
			// An earlier key of e with the same ordinal emptied the list.
			continue
		}
		list = slices.DeleteFunc(list, func(p posting) bool { return p.slot == slot })
		if len(list) > 0 {
			sh.lists[k.ord] = list
			continue
		}
		sh.ords.remove(sh.keyStr, k.ord)
		sh.keyStr[k.ord] = ""
		sh.lists[k.ord] = nil
		sh.freeOrds = append(sh.freeOrds, k.ord)
	}
}

// DumpConsistent returns every stored model in canonical serialized form,
// sorted by id, under a corpus-wide read lock: every shard is read-locked
// before the first entry is serialized, so no mutation can be in flight
// (mutations hold a shard write lock across both the persister call and
// the map change). before, if non-nil, runs while all locks are held —
// the store uses it to capture its WAL append position at a point that is
// provably consistent with the dumped state, which is what makes a
// snapshot's "records ≤ LastSeq are included" claim true. ctx is checked
// between entries, so a snapshot of a large corpus can be abandoned
// without holding every shard read lock for its full duration. A
// cancelled dump returns ctx's error and no blobs; the corpus is
// read-locked only, so no state needs undoing.
func (c *Corpus) DumpConsistent(ctx context.Context, before func()) ([]ModelBlob, error) {
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
		for id, slot := range sh.entries {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Every entry dumps its Doc as is — byte-identical to a
			// re-render by the canonical-bytes stability invariant; the
			// dump reads no bytes, and never forces an entry to parse.
			e := sh.slab[slot]
			blobs = append(blobs, ModelBlob{ID: id, Doc: e.loadDoc(), Keys: sh.componentKeys(e)})
		}
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].ID < blobs[j].ID })
	return blobs, nil
}

// Relocate re-points entries at new copies of their documents — the
// durable store calls it after compaction writes a snapshot, before it
// deletes the files the old Docs read from. For each i, the entry stored
// under blobs[i].ID switches to docs[i] if it still holds blobs[i].Doc (a
// model removed or replaced since the dump keeps what it has). Docs held
// in memory, as is or deflated, are not relocated: they read from no
// file. Each shard is write-locked while its entries are swapped; a lazy
// parse already reading an old Doc finishes on it.
func (c *Corpus) Relocate(blobs []ModelBlob, docs []Doc) {
	for i, b := range blobs {
		switch b.Doc.(type) {
		case Bytes, *deflated:
			continue
		}
		sh := c.shardFor(b.ID)
		sh.mu.Lock()
		if e, ok := sh.get(b.ID); ok && e.loadDoc() == b.Doc {
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
	m, err := e.loadModel()
	if err != nil {
		// An entry's bytes are canonical output of a previous Add, which
		// re-parses by construction; what fails here is a Doc that cannot
		// be read back (bytes that rotted on disk and failed their CRC, a
		// corrupt deflate stream), and such a model is reported absent.
		return nil, false
	}
	return m.Clone(), true
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
	return sh.get(id)
}

// ComposeWith merges the query model into a copy of the stored model under
// the corpus match options — the "find a composition partner, then
// compose" workflow. Neither the stored model nor the query is mutated.
// The pairwise composition checks ctx between component families; all
// compiled state is private to the call, so a cancelled compose leaves the
// corpus untouched.
func (c *Corpus) ComposeWith(ctx context.Context, id string, query *sbml.Model) (*core.Result, error) {
	e, ok := c.lookup(id)
	if !ok {
		return nil, fmt.Errorf("corpus: no model %q: %w", id, ErrNotFound)
	}
	m, err := e.loadModel()
	if err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("compose")
	res, err := core.Compose(ctx, m, query, c.opts.Match)
	sp.End()
	return res, err
}

// SimulateODE integrates a stored model on its cached engine.
//
//sbml:noctx cmd/sbmlbench calls the ctx-free half; the pair folds into one when the benchmark changes
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
	tr, err := eng.ODE(ctx, opts)
	sp.End()
	return tr, err
}

// SimulateSSAContext runs Gillespie's direct method on a stored model's
// cached engine; the event loop checks ctx periodically mid-run.
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
	tr, err := eng.SSA(ctx, opts)
	sp.End()
	return tr, err
}

// CheckProperty evaluates a temporal-logic formula (mc2 syntax) over a
// deterministic simulation of a stored model, reusing the cached engine.
//
//sbml:noctx cmd/sbmlbench calls the ctx-free half; the pair folds into one when the benchmark changes
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
	tr, err := eng.ODE(ctx, opts)
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
// it (the keys depend on its match options). It holds key strings and
// their hashes, not dictionary ordinals, so it also finds keys that later
// Adds introduce.
type CompiledQuery struct {
	keys []queryKey
	// comps holds the query's distinct component ids, sorted, so the
	// order of component indexes is the order of ids.
	comps []string
	denom int
}

// queryKey is one match key of a compiled query, naming its component by
// index into CompiledQuery.comps. hash is keyHash(key), computed once so
// retrieval probes every shard's dictionary without rehashing the key.
type queryKey struct {
	key  string
	hash uint64
	comp uint32
	tier uint8
}

// CompileQuery compiles a query model for SearchCompiled. Callers that
// search with the same query repeatedly hold the result and skip
// compilation on every later call; the HTTP server caches it keyed on raw
// request bytes.
func (c *Corpus) CompileQuery(query *sbml.Model) (*CompiledQuery, error) {
	if query == nil {
		return nil, fmt.Errorf("corpus: CompileQuery requires a non-nil query")
	}
	keys := core.MatchKeys(query, c.opts.Match)
	cq := &CompiledQuery{keys: make([]queryKey, len(keys)), denom: core.MatchableComponents(query)}
	idx := make(map[string]uint32)
	for _, k := range keys {
		if _, ok := idx[k.Component]; !ok {
			idx[k.Component] = 0
			cq.comps = append(cq.comps, k.Component)
		}
	}
	sort.Strings(cq.comps)
	for i, id := range cq.comps {
		idx[id] = uint32(i)
	}
	for i, k := range keys {
		cq.keys[i] = queryKey{key: k.Key, hash: keyHash(k.Key), comp: idx[k.Component], tier: uint8(k.Tier)}
	}
	return cq, nil
}

// SearchCompiled ranks the corpus against an already compiled query, with
// Search's exact semantics. Rankings are computed fresh against the live
// corpus on every call, so SearchCompiled(CompileQuery(q)) equals
// Search(q) exactly.
func (c *Corpus) SearchCompiled(ctx context.Context, cq *CompiledQuery, opts SearchOptions) ([]Hit, error) {
	if cq == nil {
		return nil, fmt.Errorf("corpus: SearchCompiled requires a non-nil compiled query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.rank(ctx, cq, opts)
}

// Search ranks the corpus models against the query. Candidate retrieval
// walks the query's match keys through each shard's inverted index, so
// models sharing no key with the query are never touched; candidates are
// then scored concurrently (greedy maximum-weight assignment over the
// shared-key score matrix) and merged into one global ranking: score
// descending, model id ascending on ties, windowed to [Offset,
// Offset+TopK).
//
// ctx is checked between shards during retrieval and by every scoring
// worker between candidates. A cancelled search drains its worker pool
// (nothing outlives the call), leaves the corpus untouched — Search never
// mutates shared state, so a follow-up query behaves as if the cancelled
// one never ran — and returns ctx's error. Rankings are identical at every
// shard and worker count.
func (c *Corpus) Search(ctx context.Context, query *sbml.Model, opts SearchOptions) ([]Hit, error) {
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
	return c.rank(ctx, cq, opts)
}

// rank is the shared post-compile body of Search and SearchCompiled: retrieval, concurrent scoring and the
// deterministic global merge, all a pure function of the compiled query.
func (c *Corpus) rank(ctx context.Context, cq *CompiledQuery, opts SearchOptions) ([]Hit, error) {
	if opts.TopK == 0 {
		opts.TopK = 5
	}
	if opts.Offset < 0 {
		opts.Offset = 0
	}

	cands, err := c.retrieve(ctx, cq, opts.Cutoff)
	if err != nil || len(cands) == 0 {
		return nil, err
	}

	// Scoring: fan the candidates out with par.Do, one worker per proc,
	// each reusing its own scorer; each score depends only on the
	// candidate's own cells, and the merge below orders hits totally, so
	// the layout of hits does not matter. A cancelled search discards the
	// partial hits slice.
	scoreSpan := obs.FromContext(ctx).Start("score")
	hits := make([]Hit, len(cands))
	// Each worker allocates its own scorer: scorers packed into one slice
	// would share cache lines that every candidate writes.
	scorers := make([]*scorer, par.Workers(len(cands)))
	err = par.Do(ctx, len(cands), func(w, i int) error {
		if scorers[w] == nil {
			scorers[w] = newScorer(cq)
		}
		hits[i] = scorers[w].assign(&cands[i], opts.Cutoff)
		return nil
	})
	scoreSpan.End()
	if err != nil {
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

// retrieve accumulates, per candidate model, the score-matrix cells its
// postings share with the query on keys of weight at least cutoff. A
// model lives in one shard, so its cells are its own postings under the
// query's keys, in query-key then posting order, whatever the shard
// layout. ctx is checked between shards.
func (c *Corpus) retrieve(ctx context.Context, cq *CompiledQuery, cutoff float64) ([]candidate, error) {
	sp := obs.FromContext(ctx).Start("retrieve")
	var cands []candidate
	for _, sh := range c.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sh.mu.RLock()
		// at[slot] is 1 + the index in cands of the slot's candidate.
		at := make([]int32, len(sh.slab))
		for _, qk := range cq.keys {
			if core.KeyTier(qk.tier).Weight() < cutoff {
				continue
			}
			_, ord, ok := sh.ords.find(sh.keyStr, qk.key, qk.hash)
			if !ok {
				continue
			}
			var cand *candidate
			for _, p := range sh.lists[ord] {
				if cand == nil || cand.slot != p.slot {
					if at[p.slot] == 0 {
						cands = append(cands, candidate{e: sh.slab[p.slot], slot: p.slot})
						at[p.slot] = int32(len(cands))
					}
					cand = &cands[at[p.slot]-1]
				}
				tk := cand.e.keys[p.i]
				cand.cells = append(cand.cells, cell{q: qk.comp, t: tk.comp, tier: max(qk.tier, tk.tier), kind: tk.kind})
			}
		}
		sh.mu.RUnlock()
	}
	sp.End()
	return cands, nil
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
