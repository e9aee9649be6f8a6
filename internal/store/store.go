// Package store makes the corpus durable: an append-only write-ahead log
// plus periodic snapshots, with Open replaying snapshot-then-tail to
// reconstruct a corpus.Corpus whose contents, match-key indexes and
// search rankings are identical to a never-restarted corpus.
//
// # On-disk layout
//
// A store directory holds one snapshot and one or more WAL segments:
//
//	corpus.snap            snapshot (optional until first compaction)
//	wal-<gen 16-hex>.log   WAL segments, generation order = lexical order
//
// # WAL format (version sbwal-v2)
//
// Each segment begins with an 8-byte magic, "sbwal-v2" for every segment
// this code creates, followed by length+CRC-framed records:
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32 (IEEE) of the payload
//	payload    bytes
//
// A record payload is:
//
//	byte     op               1 = AddModel, 2 = RemoveModel,
//	                          3 = AddModel with match keys
//	uvarint  seq              monotonically increasing across segments
//	uvarint  len(id) + id     the model id
//	uvarint  len(sbml) + sbml (ops 1 and 3) canonical SBML bytes,
//	                          exactly as the corpus stores the model
//	uint64 LE  fingerprint    (op 3 only) core.Options.MatchKeyFingerprint
//	                          of the options the keys were derived under
//	keys                      (op 3 only, to the end of the payload)
//	                          core.EncodeMatchKeys blob
//
// The frame CRC covers the fingerprint and keys like everything else.
// Adds through the corpus write op 3; op 1 is what sbwal-v1 segments
// hold, and it still decodes. Readers accept both magics. A v1 segment
// never receives an op-3 record: when Open finds a v1 tail segment, it
// rotates to a fresh v2 segment before the first append.
//
// The version bump is what makes a downgrade safe. A binary that knows
// only v1 decodes op 3 as an unknown op, which it treats as a torn tail
// and truncates, losing acknowledged records; instead it refuses the v2
// magic and does not start. For the same reason, upgrade replication
// followers before their primary: an old follower refuses op-3 frames
// from a new primary, so it stalls, but it is never corrupted.
//
// The sequence number orders records globally and links the WAL to
// snapshots: a snapshot records the highest seq whose effect it includes,
// and replay skips records at or below it, which is what makes
// compaction crash-safe at every intermediate step (a crash between
// snapshot rename and segment deletion merely replays records that the
// seq check then skips).
//
// # Recovery
//
// Open loads the snapshot (a corrupt snapshot is a hard error — see
// ErrCorruptSnapshot — because ignoring it would silently lose the
// corpus), then replays WAL records in order. Replay stops at the first
// bad frame of a segment — short frame header, implausible length, CRC
// mismatch, undecodable payload — and drops everything from it to the
// segment's end: a torn or corrupt tail holds only unacknowledged
// writes, and is never mis-applied (pinned byte-by-byte by the
// crash-recovery property test). The tail segment is physically
// truncated back to its last intact record so later appends continue a
// well-formed log.
//
// Snapshots are written in a binary format (sbsnap-2, codec.go) that
// carries each model's precompiled match keys next to its canonical
// bytes, and op-3 WAL records carry them too, so recovered models
// normally install without touching the XML pipeline at all. One trust
// rule (recover.go) covers snapshot entries, WAL records, replicated
// records and snapshot images alike: persisted keys are used only when
// their CRC holds, they decode, the recorded match-options fingerprint
// equals the opening corpus's, and Options.RecoveryParseOnly is off.
// Otherwise the model takes the parse path, fanned out with par.Do over
// GOMAXPROCS workers and applied in record order; a keys blob that fails
// to decode never cuts the log. Either way the entry is installed with
// keys and a locator only, and parses on first structural use; the
// recovered corpus is search-identical to a never-restarted one. The snapshot
// image and segment images read at Open are transient: nothing installed
// keeps a reference into them. The retired sbsnap-1 gob format is
// refused with ErrCorruptSnapshot; an older build upgrades such a store
// by opening and closing it once.
//
// # Documents stay on disk
//
// Search needs only a model's match keys, so corpus entries backed by
// this store hold no SBML. Each keeps a locator instead (a corpus.Doc,
// doc.go): a shared read-only file handle plus the offset, length and
// CRC-32 of a span the file format already checksums — a WAL record's
// frame payload under its frame CRC, or a snapshot entry's core section
// under its core CRC. Structural use (Get, compose, simulate, check) and
// snapshot writes read the span and verify its CRC before anything
// parses it, so bytes that rot on disk after Open are caught at read
// time: the model reads as absent from Get, its structural operations
// fail with ErrCorruptDoc, and a snapshot refuses to copy it.
//
// Locators come from every path that installs a model: Open points them
// into the snapshot and segments it read, an append returns the offset
// of the frame it wrote (AppendBatch sets BatchRecord.Doc, and the
// corpus hooks PersistAddKeys and PersistBatch hand the locator back to
// the entry), and ApplySnapshotImage points them into the corpus.snap it
// just installed. Each segment and snapshot file gets its own O_RDONLY
// handle, separate from the WAL writer's descriptor, which rotation
// closes.
//
// Compaction relocates before it deletes. Once the new snapshot is on
// disk and open, Corpus.Relocate swaps, under each shard's write lock,
// every dumped entry that still holds its dumped locator for one into
// the new snapshot; only then are the covered segments removed. A
// snapshot that cannot be written or opened leaves every old file in
// place, as it always has. A handle is never closed explicitly: the
// os.File cleanup closes it once no locator reaches it, so a lazy read
// in flight on an old locator never races a close, and a deleted file's
// space is released after the collector next runs.
//
// # Durability policy
//
// Each policy has one mechanism. FsyncAlways acknowledges an append only
// once an fsync covering it returns, so an acknowledged mutation survives
// power loss; the syncs are group commits (group.go): appends are written
// at once, and one fsync acknowledges every append that landed while the
// previous one was in flight, so concurrent writers share a sync and a
// lone writer pays one per append. FsyncInterval syncs on a timer,
// bounding loss to the interval; a failed timer sync wedges the writer.
// FsyncNever leaves flushing to the OS. Under every policy, rotation syncs
// the segment it closes, and a failed sync there wedges the writer that
// replaces it. Snapshots are always written cold-path durable (temp file +
// fsync + rename + directory sync) regardless of policy.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
)

// FsyncPolicy selects when WAL appends are synced to stable storage.
//
// Under every policy, rotating to a new segment (compaction's first step)
// syncs the segment it closes. If that sync fails the new writer wedges,
// exactly as after a failed FsyncInterval timer sync: records in the old
// segment may never reach the disk, so no later append is accepted and the
// replication feed's watermark never passes them until the store is
// reopened.
type FsyncPolicy string

const (
	// FsyncAlways acknowledges no append before an fsync covering it
	// completes: no acknowledged write is ever lost. The syncs are group
	// commits — one fsync acknowledges every append that landed while the
	// previous one was in flight — so latency per append stays around one
	// fsync and aggregate throughput scales with the writer count. The
	// default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (Options.FsyncEvery): loss after a
	// crash is bounded by the interval. The replication feed ships a
	// record only after a timer sync (or a snapshot) covers it. A failed
	// timer sync wedges the writer, because the kernel may have dropped
	// the pages it failed on and a later sync would not bring them back:
	// later appends fail and the feed ships nothing newer.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the operating system. Replication
	// caveat: with no sync point to gate on, the feed ships records the
	// moment they are written, so a primary crash can lose records a
	// follower already holds durably — the follower is then no prefix of
	// the restarted primary and can never reconcile. Primaries that feed
	// followers should run FsyncAlways or FsyncInterval (both of which
	// ship only durable records).
	FsyncNever FsyncPolicy = "never"
)

// Options configures Open.
type Options struct {
	// Corpus configures the recovered corpus (shards and match options).
	Corpus corpus.Options
	// Fsync is the WAL durability policy; empty means FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period; 0 defaults to 200ms.
	FsyncEvery time.Duration
	// RecoveryParseOnly makes the store ignore persisted match keys — in
	// the snapshot, in keyed WAL records, and in replicated records and
	// snapshot images — and push every model through the parse path, as
	// if only canonical bytes were persisted. Benchmarks use it to isolate
	// the persisted keys' advantage; operators can use it to force
	// re-derivation.
	RecoveryParseOnly bool
	// CompactBytes triggers an automatic snapshot (and WAL truncation)
	// once the live segment's record bytes exceed it. 0 defaults to 8 MiB;
	// negative disables auto-compaction.
	CompactBytes int64
	// NoSnapshotOnClose skips the final snapshot Close normally takes
	// (used by crash harnesses and recovery benchmarks that need the raw
	// WAL to survive).
	NoSnapshotOnClose bool
	// Metrics, when non-nil, receives durability instrumentation
	// (metrics.go); nil costs nothing.
	Metrics *Metrics
}

func (o Options) withDefaults() (Options, error) {
	switch o.Fsync {
	case "":
		o.Fsync = FsyncAlways
	case FsyncAlways, FsyncInterval, FsyncNever:
	case "group":
		return o, fmt.Errorf(`store: fsync policy "group" is gone: "always" now group-commits with the same guarantee`)
	default:
		return o, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", o.Fsync)
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 200 * time.Millisecond
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 8 << 20
	}
	return o, nil
}

// RecoveryStats describes what Open found and replayed; the server logs
// it at startup and serves it on /healthz.
type RecoveryStats struct {
	// SnapshotModels counts models restored from the snapshot; SnapshotSeq
	// is the WAL sequence number the snapshot covered. Of those models,
	// SnapshotPrecompiled installed straight from persisted match keys and
	// SnapshotParsed took the parse path (legacy format, damaged keys
	// section, fingerprint mismatch, or Options.RecoveryParseOnly).
	SnapshotModels      int    `json:"snapshot_models"`
	SnapshotSeq         uint64 `json:"snapshot_seq"`
	SnapshotPrecompiled int    `json:"snapshot_precompiled"`
	SnapshotParsed      int    `json:"snapshot_parsed"`
	// WALSegments and WALRecords count the segments read and the intact
	// records in them; WALSkipped of those were already covered by the
	// snapshot, WALAdds/WALRemoves were applied. Of the adds,
	// WALPrecompiled installed straight from the keys their record
	// carries and WALParsed took the parse path (keyless v1-era record,
	// undecodable keys, fingerprint mismatch, or
	// Options.RecoveryParseOnly).
	WALSegments    int `json:"wal_segments"`
	WALRecords     int `json:"wal_records"`
	WALSkipped     int `json:"wal_skipped"`
	WALAdds        int `json:"wal_adds"`
	WALRemoves     int `json:"wal_removes"`
	WALPrecompiled int `json:"wal_precompiled"`
	WALParsed      int `json:"wal_parsed"`
	// TornTail reports that a torn or corrupt tail was found and dropped;
	// DroppedBytes is its size.
	TornTail     bool  `json:"torn_tail"`
	DroppedBytes int64 `json:"dropped_bytes"`
}

// Status is a point-in-time view of the store for health reporting.
type Status struct {
	Dir       string        `json:"dir"`
	Fsync     FsyncPolicy   `json:"fsync"`
	Recovery  RecoveryStats `json:"recovery"`
	LastSeq   uint64        `json:"last_seq"`
	TailBytes int64         `json:"wal_tail_bytes"`
	// Snapshots counts snapshots taken since Open (manual, automatic and
	// on close); CompactError is the most recent background-compaction
	// failure, empty when healthy.
	Snapshots    int64  `json:"snapshots"`
	CompactError string `json:"compact_error,omitempty"`
}

// Store couples a recovered corpus to its WAL and snapshot files. It is
// the corpus's Persister: every Add/Remove is logged (and, under
// FsyncAlways, group-committed) before the in-memory mutation becomes
// visible.
// All methods are safe for concurrent use.
type Store struct {
	dir   string
	opts  Options
	c     *corpus.Corpus
	stats RecoveryStats
	// fingerprint identifies the match options the corpus's keys are
	// derived under; snapshots and keyed WAL records carry it so a later
	// Open (or a follower) knows whether the persisted keys are
	// trustworthy.
	fingerprint uint64
	// parseJobs counts models sent down the parse path by resolveKeys
	// (recover.go) over the store's lifetime.
	parseJobs atomic.Int64

	// mu guards the WAL writer, sequence counter and tail size. Lock
	// order is shard lock → mu (persist calls arrive holding a shard
	// lock; DumpConsistent's callback takes mu while holding every shard
	// lock), so mu must never be held while acquiring a shard lock.
	mu        sync.Mutex
	wal       *walWriter
	gen       uint64
	seq       uint64
	tailBytes int64
	closing   bool // Close has begun: appends fail
	closed    bool // WAL closed: snapshots and tail reads fail

	// Replication-feed state (tail.go), guarded by mu. ackedSeq is the
	// highest sequence number whose append has been acknowledged to its
	// caller — the replication feed never ships a record beyond it,
	// because an unacknowledged record (a group-commit batch awaiting its
	// fsync) can still be rolled back. compactedSeq is the highest
	// sequence number that compaction may have removed from the WAL
	// (the snapshot's LastSeq at the most recent compaction, or at Open);
	// a tail read starting below it gets ErrCompacted — deterministically,
	// whether or not the bytes happen to survive on disk — and must
	// bootstrap from a snapshot instead. tailWake is closed and replaced
	// whenever ackedSeq or compactedSeq advances, waking blocked readers.
	ackedSeq     uint64
	compactedSeq uint64
	tailWake     chan struct{}
	// tailCur caches where the last tail scan stopped, so a follower
	// walking the feed forward seeks straight to its next frame instead
	// of re-reading the whole WAL per chunk (tail.go).
	tailCur tailCursor

	// identMu guards the replication identity (cluster ID + promotion
	// epoch, identity.go), persisted in replication.json.
	identMu sync.Mutex
	ident   replIdentity

	// readOnly gates the corpus-facing persist path while a follower
	// replica owns this store: local mutations would interleave
	// locally-assigned sequence numbers with the primary's and diverge
	// the replica forever, so PersistAdd/PersistRemove fail with
	// ErrReadOnly until promotion lifts the gate. The replication apply
	// path (AppendBatch) is exempt — it is the one legitimate writer.
	readOnly atomic.Bool

	// Group-commit state (FsyncAlways only; see group.go). groupMu
	// serializes group commits against segment rotation — lock order is
	// groupMu → mu, and whoever holds groupMu owns the invariant that
	// every pending waiter's record sits in the current s.wal.
	// groupWaiters (guarded by mu) are appends written but awaiting the
	// fsync that acknowledges them; groupCh kicks the loop.
	groupMu      sync.Mutex
	groupCh      chan struct{}
	groupWaiters []groupWaiter

	// snapMu serializes snapshots (manual, auto-compaction, close).
	snapMu     sync.Mutex
	snapshots  atomic.Int64
	compactErr atomic.Value // string
	compactCh  chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup
	// closeResult gates concurrent Close calls: the first closer does the
	// work and publishes its error; later callers block until the channel
	// closes, so a nil return from any Close means the store is closed.
	closeResult chan struct{}
	closeErr    error
	// closeCtx is cancelled when Close begins, so an in-flight background
	// compaction unwinds between units of work instead of delaying
	// shutdown by a full snapshot write.
	closeCtx    context.Context
	closeCancel context.CancelFunc
}

// Open recovers (or creates) a store in dir and returns it with its
// corpus reconstructed from snapshot plus WAL tail. The returned store is
// already attached to the corpus as its persister, so every subsequent
// corpus mutation is durable under the configured fsync policy.
func Open(dir string, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		compactCh:   make(chan struct{}, 1),
		done:        make(chan struct{}),
		closeResult: make(chan struct{}),
	}
	s.closeCtx, s.closeCancel = context.WithCancel(context.Background())

	if s.ident, err = loadReplIdentity(dir); err != nil {
		return nil, err
	}
	sf, snapF, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	s.fingerprint = opts.Corpus.Match.MatchKeyFingerprint()
	c := corpus.New(opts.Corpus)
	if snapF != nil {
		// Entries with trusted keys install directly; the rest take the
		// parse path, fanned out across workers (recover.go). Either way
		// the entry keeps a locator into the snapshot, not its bytes.
		models, parsed, err := s.snapshotModels(sf)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot %w", err)
		}
		for i := range models {
			models[i].Doc = &fileDoc{f: snapF, span: sf.entries[i].core, snap: true}
		}
		if err := c.ReplaceAll(models, nil); err != nil {
			return nil, fmt.Errorf("store: snapshot: %w", err)
		}
		s.stats.SnapshotModels = len(models)
		s.stats.SnapshotParsed = parsed
		s.stats.SnapshotPrecompiled = len(models) - parsed
		s.stats.SnapshotSeq = sf.lastSeq
		s.seq = sf.lastSeq
	}

	segs, err := segmentPaths(dir)
	if err != nil {
		return nil, err
	}
	s.stats.WALSegments = len(segs)
	// Decode every segment sequentially (framing is cheap and ordered),
	// collecting the records to apply and a locator for each.
	var pending []walRecord
	var docs []corpus.Doc
	for i, path := range segs {
		rep, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		if rep.droppedBytes > 0 {
			s.stats.TornTail = true
			s.stats.DroppedBytes += rep.droppedBytes
			if i != len(segs)-1 {
				// A torn tail is only self-repairing at the end of the
				// log. Mid-sequence (possible after a failed compaction
				// left multiple segments and the OS then lost a tail under
				// fsync=never/interval), replaying the later segments
				// would apply records across a gap in history — refuse
				// loudly instead of guessing.
				return nil, fmt.Errorf("store: %s has a torn or corrupt tail but later segments exist; refusing to replay past the gap (restore the segment or delete the newer ones)", path)
			}
		}
		for j, rec := range rep.records {
			s.stats.WALRecords++
			if rec.seq > s.seq {
				s.seq = rec.seq
			}
			if rec.seq <= sf.lastSeq {
				s.stats.WALSkipped++
				continue
			}
			pending = append(pending, rec)
			docs = append(docs, &fileDoc{f: rep.f, span: rep.spans[j]})
		}
		if i == len(segs)-1 {
			if err := s.openTail(path, rep); err != nil {
				return nil, err
			}
		}
	}
	if len(segs) == 0 {
		s.gen = 1
		s.wal, err = createSegment(segmentName(dir, s.gen))
		if err != nil {
			return nil, err
		}
		syncDir(dir)
	}
	s.wal.metrics = opts.Metrics

	// Replay the WAL tail as one batch, before the store is attached as the
	// persister, so nothing is logged again. The adds' keys are resolved
	// first, with any parse path fanned out (recover.go); ApplyBatch then
	// checks every op against the state the ops before it leave, which is
	// what a sequential replay would check, and installs them in order.
	ops, parsed, err := s.batchOps(pending)
	if err != nil {
		return nil, fmt.Errorf("store: replay %w", err)
	}
	for i := range ops {
		if !ops[i].Remove {
			ops[i].Doc = docs[i]
			s.stats.WALAdds++
		}
	}
	if err := c.ApplyBatch(ops); err != nil {
		return nil, fmt.Errorf("store: replay: %w", err)
	}
	s.stats.WALRemoves = len(ops) - s.stats.WALAdds
	s.stats.WALParsed = parsed
	s.stats.WALPrecompiled = s.stats.WALAdds - parsed

	s.c = c
	c.SetPersister(s)

	// Everything recovery applied is by definition acknowledged, and
	// records at or below the snapshot's seq may no longer exist in the
	// WAL — a replication read must not start below that point.
	s.ackedSeq = s.seq
	s.compactedSeq = sf.lastSeq
	s.tailWake = make(chan struct{})

	s.wg.Add(1)
	go s.compactLoop()
	switch opts.Fsync {
	case FsyncAlways:
		s.groupCh = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.groupLoop()
	case FsyncInterval:
		s.wg.Add(1)
		go s.fsyncLoop()
	}
	return s, nil
}

// openTail repairs the log's last segment and opens the append target:
// a segment torn during creation is recreated whole, and a torn tail is
// truncated back to its last intact record. A v1 segment never receives
// an appended record — an older binary reading an opAddKeys frame behind
// the v1 magic would truncate the log there — so appends go to a fresh
// v2 segment instead, the way compaction rotates, and the v1 segment
// replays until the next compaction covers it.
func (s *Store) openTail(path string, rep segmentReplay) error {
	gen, err := segmentGen(path)
	if err != nil {
		return err
	}
	s.gen = gen
	if rep.goodOff < int64(len(walMagic)) {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: recreate %s: %w", path, err)
		}
		s.wal, err = createSegment(path)
		return err
	}
	if rep.droppedBytes > 0 {
		if err := os.Truncate(path, rep.goodOff); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
	}
	// The segment's record bytes count toward auto-compaction either way:
	// after a v1 rotation they are still uncompacted tail.
	s.tailBytes = rep.goodOff - int64(len(walMagic))
	if rep.v1 {
		s.gen++
		if s.wal, err = createSegment(segmentName(s.dir, s.gen)); err != nil {
			return err
		}
		syncDir(s.dir)
		return nil
	}
	s.wal, err = openSegmentForAppend(path, rep.goodOff)
	return err
}

// Corpus returns the recovered corpus. Mutations made through it are
// persisted by this store.
func (s *Store) Corpus() *corpus.Corpus { return s.c }

// Stats returns what recovery found at Open.
func (s *Store) Stats() RecoveryStats { return s.stats }

// Status returns the store's current health view.
func (s *Store) Status() Status {
	s.mu.Lock()
	seq, tail := s.seq, s.tailBytes
	s.mu.Unlock()
	st := Status{
		Dir:       s.dir,
		Fsync:     s.opts.Fsync,
		Recovery:  s.stats,
		LastSeq:   seq,
		TailBytes: tail,
		Snapshots: s.snapshots.Load(),
	}
	if msg, ok := s.compactErr.Load().(string); ok {
		st.CompactError = msg
	}
	return st
}

// persistErr tags a durable-store failure so callers can map it apart
// from model errors (the corpus sentinel makes errors.Is work through
// the corpus's own wrapping).
func persistErr(op string, err error) error {
	return fmt.Errorf("store: %s: %w: %w", op, err, corpus.ErrPersist)
}

// ErrReadOnly marks mutations rejected because the store is a follower
// replica: every local write must come from the primary's log (via the
// replication apply path), or the replica diverges. Promotion lifts it.
var ErrReadOnly = errors.New("store is a read-only replica")

// PersistAdd implements corpus.Persister: it logs an AddModel record
// (group-committed under FsyncAlways) before the corpus applies the
// mutation. Called under the mutated shard's write lock.
func (s *Store) PersistAdd(id string, sbmlBytes []byte) error {
	if s.readOnly.Load() {
		return persistErr("wal append add", ErrReadOnly)
	}
	return s.appendBatch("wal append add", []BatchRecord{{ID: id, SBML: sbmlBytes}})
}

// PersistAddKeys implements corpus.KeyPersister: PersistAdd, except the
// record also carries the model's match keys and this store's
// match-options fingerprint (op 3), so recovery and followers install the
// model without parsing it. The returned Doc locates the record in the
// live segment.
func (s *Store) PersistAddKeys(id string, sbmlBytes []byte, keys []core.ComponentKey) (corpus.Doc, error) {
	if s.readOnly.Load() {
		return nil, persistErr("wal append add", ErrReadOnly)
	}
	recs := []BatchRecord{{ID: id, SBML: sbmlBytes, Keys: keys}}
	if err := s.appendBatch("wal append add", recs); err != nil {
		return nil, err
	}
	return recs[0].Doc, nil
}

// PersistRemove implements corpus.Persister for removals.
func (s *Store) PersistRemove(id string) error {
	if s.readOnly.Load() {
		return persistErr("wal append remove", ErrReadOnly)
	}
	return s.appendBatch("wal append remove", []BatchRecord{{Remove: true, ID: id}})
}

// advanceAckedLocked raises the acknowledged-sequence watermark and wakes
// blocked tail readers. Caller holds mu.
func (s *Store) advanceAckedLocked(seq uint64) {
	if seq <= s.ackedSeq {
		return
	}
	s.ackedSeq = seq
	close(s.tailWake)
	s.tailWake = make(chan struct{})
}

// BatchRecord is one mutation of an AppendBatch call.
type BatchRecord struct {
	// Remove selects a RemoveModel record; otherwise the record is an
	// AddModel carrying SBML.
	Remove bool
	// Seq, when non-zero, is the externally assigned sequence number —
	// the replication apply path preserves the primary's numbering so a
	// follower's durable seq is directly comparable to the primary's.
	// Seqs must be strictly increasing across the batch and greater than
	// every seq already in this store. Zero assigns the next local seq.
	Seq  uint64
	ID   string
	SBML []byte
	// Keys, when non-nil, are SBML's match keys under this store's match
	// options: the add is logged as a keyed record (op 3).
	Keys []core.ComponentKey
	// Doc is set by a successful AppendBatch, for adds: a locator reading
	// SBML back from the segment the record landed in.
	Doc corpus.Doc
}

// AppendBatch logs a chunk of records with a single write and at most a
// single fsync covering the whole chunk — the follower apply path's
// amortization (a received replication batch of N records costs one sync,
// not N). Under FsyncAlways the batch enqueues one waiter, so it joins
// whatever group commit forms. All records land or none do: a failed
// write or sync rolls the entire chunk back. On success every add's Doc
// locates its record.
func (s *Store) AppendBatch(recs []BatchRecord) error {
	if len(recs) == 0 {
		return nil
	}
	return s.appendBatch("wal append batch", recs)
}

// appendBatch is the one append path: it logs recs as one write, labels
// a failure with op, and returns once the records are acknowledged under
// the store's policy.
func (s *Store) appendBatch(op string, recs []BatchRecord) error {
	if m := s.opts.Metrics; m != nil {
		t0 := time.Now()
		defer func() { m.AppendSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	s.mu.Lock()
	if s.closing {
		// Appends stop at closing, not just closed: the group loop takes
		// its final drain when Close signals done, and a waiter enqueued
		// after that drain would block forever. closing is set under mu
		// before done is closed, so this check and the drain cannot miss
		// the same waiter.
		s.mu.Unlock()
		return persistErr(op, fmt.Errorf("store is closed"))
	}
	seq0 := s.seq
	var frames []byte
	for _, br := range recs {
		rec := walRecord{op: opAdd, id: br.ID, sbml: br.SBML}
		switch {
		case br.Remove:
			rec = walRecord{op: opRemove, id: br.ID}
		case br.Keys != nil:
			rec.op, rec.fingerprint, rec.keys = opAddKeys, s.fingerprint, core.EncodeMatchKeys(br.Keys)
		}
		if br.Seq == 0 {
			s.seq++
		} else if br.Seq <= s.seq {
			err := fmt.Errorf("batch seq %d not beyond store seq %d", br.Seq, s.seq)
			s.seq = seq0
			s.mu.Unlock()
			return persistErr(op, err)
		} else {
			s.seq = br.Seq
		}
		rec.seq = s.seq
		frames = appendFrame(frames, rec)
	}
	w, base := s.wal, s.wal.off
	if err := w.appendFrames(frames); err != nil {
		// The writer rolled the whole chunk back (or wedged); the seqs it
		// would have consumed are surrendered too so a retry reuses them.
		s.seq = seq0
		s.mu.Unlock()
		return persistErr(op, err)
	}
	last := s.seq
	s.tailBytes += int64(len(frames))
	if s.opts.CompactBytes > 0 && s.tailBytes >= s.opts.CompactBytes {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	var done chan error
	switch s.opts.Fsync {
	case FsyncAlways:
		// The records are written but not yet durable. Enqueue in the same
		// critical section as the write — that is what lets both the group
		// loop and rotation pair every waiter with the writer holding its
		// bytes — then block until an fsync covers them (or fails; then the
		// records have been rolled back and the mutation must abort).
		done = make(chan error, 1)
		s.groupWaiters = append(s.groupWaiters, groupWaiter{ch: done, prev: seq0, seq: last, records: len(recs)})
	case FsyncNever:
		// No sync point to gate on: the feed ships at once (see the
		// policy's replication caveat). Under FsyncInterval the fsync loop
		// advances the watermark at the next timer sync instead, so a
		// primary crash can never lose a record a follower durably holds.
		s.advanceAckedLocked(last)
	}
	s.mu.Unlock()
	if done != nil {
		select {
		case s.groupCh <- struct{}{}:
		default: // loop already kicked; it drains all waiters regardless
		}
		if err := <-done; err != nil {
			return persistErr(op, err)
		}
	}
	for i, off := 0, 0; i < len(recs); i++ {
		sp := frameSpan(frames[off:], base+int64(off))
		off += walFrameLen + int(sp.n)
		if !recs[i].Remove {
			recs[i].Doc = &fileDoc{f: w.r, span: sp}
		}
	}
	return nil
}

// LastSeq returns the highest sequence number assigned so far.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Snapshot writes a snapshot of the current corpus and truncates the WAL
// to records newer than it: the compaction step. Safe to call at any
// time; concurrent mutations keep flowing into a freshly rotated segment
// while the snapshot file is written, and every intermediate crash state
// recovers (the snapshot's LastSeq makes already-covered tail records
// no-ops at replay).
//
//sbml:noctx cmd/sbmlbench calls the ctx-free half; the pair folds into one when the benchmark changes
func (s *Store) Snapshot() error {
	return s.SnapshotContext(context.Background())
}

// SnapshotContext is Snapshot honoring cancellation: ctx is checked before
// the segment rotation, between per-model serializations of the consistent
// dump, and before the snapshot file write. A cancelled snapshot returns
// ctx's error and writes no snapshot file; if the rotation already
// happened, the rotated-out segment simply remains until the next
// successful compaction covers it — every intermediate state recovers, as
// with a crash. The durable contents are never affected by cancellation.
func (s *Store) SnapshotContext(ctx context.Context) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	snapStart := time.Now()

	// Rotate: new appends go to a fresh segment so the snapshot write
	// happens without holding any corpus or WAL lock.
	newGen, err := s.rotate(nil)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	// Collect a consistent view: every shard read-locked before the first
	// model is serialized, LastSeq captured under the same locks.
	var lastSeq uint64
	blobs, err := s.c.DumpConsistent(ctx, func() {
		s.mu.Lock()
		lastSeq = s.seq
		s.mu.Unlock()
	})
	if err != nil {
		// Cancelled mid-dump: the rotated segments stay on disk and keep
		// replaying at recovery, exactly as before this call.
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	docs, err := writeSnapshot(s.dir, lastSeq, s.fingerprint, blobs)
	if err != nil {
		// The old segments remain; recovery still replays them, and
		// entries keep reading from them.
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	// Re-point every dumped entry still holding its dumped Doc at the new
	// snapshot before any file an old Doc reads from goes away.
	s.c.Relocate(blobs, docs)

	// The snapshot covers every record in segments older than the live
	// one (they were rotated out before LastSeq was captured); delete
	// them. A crash before this point replays them into no-ops. Entries
	// still reading a deleted segment (a model replaced after the dump
	// holds none) keep its handle, and its space, until they go.
	segs, err := segmentPaths(s.dir)
	if err != nil {
		return err
	}
	for _, path := range segs {
		gen, err := segmentGen(path)
		if err != nil {
			return err
		}
		if gen < newGen {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: drop compacted segment %s: %w", path, err)
			}
		}
	}
	syncDir(s.dir)
	// Records at or below lastSeq may now be gone from the WAL (those in
	// the deleted segments are; some in the live segment may survive, but
	// the replication feed must not depend on which). Raise the floor so
	// a tail read below it deterministically gets ErrCompacted and
	// bootstraps from the snapshot instead of guessing.
	s.mu.Lock()
	// The snapshot itself is cold-path durable, so every record it covers
	// is now crash-safe regardless of fsync policy — acknowledge them to
	// the feed (this is how FsyncInterval records covered by a compaction
	// ship without waiting for the next timer sync, and it keeps the
	// acked watermark at or above the compaction floor).
	s.advanceAckedLocked(lastSeq)
	if lastSeq > s.compactedSeq {
		s.compactedSeq = lastSeq
		close(s.tailWake)
		s.tailWake = make(chan struct{})
	}
	s.mu.Unlock()
	s.snapshots.Add(1)
	if m := s.opts.Metrics; m != nil {
		m.SnapshotSeconds.Observe(time.Since(snapStart).Seconds())
	}
	return nil
}

// rotate moves appends to a fresh segment — compaction's first step, and
// snapshot-image install's — and returns its generation. check, when
// non-nil, runs under mu before anything changes and can refuse the
// rotation. The whole rotation runs inside groupMu: the group loop is
// locked out, and the waiters captured in the same critical section as the
// swap are exactly the appends whose bytes sit in the outgoing writer —
// they are resolved against it before it closes, so no waiter is ever
// left pending on a rotated-out segment. Closing flushes the outgoing
// segment; it stays on disk until a snapshot covers it.
func (s *Store) rotate(check func() error) (uint64, error) {
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("store is closed")
	}
	if check != nil {
		if err := check(); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	gen := s.gen + 1
	w, err := createSegment(segmentName(s.dir, gen))
	if err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("rotate: %w", err)
	}
	w.metrics = s.opts.Metrics
	// A wedge outlives rotation: records behind it may not be durable, so
	// no append or watermark advance may follow them until a restart.
	w.wedged = s.wal.wedged
	old, end, waiters := s.wal, s.wal.off, s.groupWaiters
	s.wal, s.gen, s.tailBytes, s.groupWaiters = w, gen, 0, nil
	s.mu.Unlock()
	s.resolveGroup(old, end, waiters)
	syncDir(s.dir)
	if err := old.close(); err != nil {
		// The old segment's last sync failed, so its unsynced records may
		// be lost while a tick or group commit on the new segment would
		// acknowledge them: wedge the new writer, as a failed timer sync
		// wedges its own. groupMu keeps the group loop off w meanwhile.
		s.mu.Lock()
		if w.wedged == nil {
			w.wedged = fmt.Errorf("sync of rotated-out segment failed: %w", err)
		}
		s.mu.Unlock()
	}
	return gen, nil
}

// compactLoop runs automatic compaction when the append path signals
// that the tail grew past Options.CompactBytes. Compactions run under
// closeCtx so a shutdown cancels an in-flight one between units of work
// (Close then takes its own final snapshot); that cancellation is an
// expected shutdown path, not a compaction failure, so it never lands in
// CompactError.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			if err := s.SnapshotContext(s.closeCtx); err != nil {
				if !errors.Is(err, context.Canceled) {
					s.compactErr.Store(err.Error())
				}
			} else {
				s.compactErr.Store("")
			}
		}
	}
}

// fsyncLoop syncs the WAL on a timer under FsyncInterval.
func (s *Store) fsyncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.intervalSync()
		}
	}
}

// intervalSync is one FsyncInterval tick. Appends hold mu, so every record
// with seq <= s.seq was fully written before this sync began; a successful
// sync makes them durable and therefore shippable. (Records in segments
// rotated out since the last tick were synced by the rotation's close, or
// the rotation wedged the live writer.) A failed sync wedges the writer:
// the kernel may have dropped the dirty pages it failed on, so no later
// sync makes those records durable, and no later tick may advance the
// watermark past them.
func (s *Store) intervalSync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if err := s.wal.fsync(); err == nil {
		s.advanceAckedLocked(s.seq)
	} else if s.wal.wedged == nil {
		s.wal.wedged = fmt.Errorf("interval fsync failed: %w", err)
	}
}

// Close stops background work, takes a final snapshot (unless
// NoSnapshotOnClose — the graceful-shutdown snapshot makes the next Open
// a pure snapshot load), and closes the WAL. The corpus stays readable
// but further mutations fail with a persist error.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		// Another goroutine is (or was) closing: wait for it to finish so
		// a nil return always means the final snapshot was attempted and
		// the WAL is closed — callers may delete or re-open the directory
		// the moment Close returns.
		<-s.closeResult
		return s.closeErr
	}
	s.closing = true
	s.mu.Unlock()

	s.closeCancel()
	close(s.done)
	s.wg.Wait()

	var snapErr error
	if !s.opts.NoSnapshotOnClose {
		snapErr = s.Snapshot()
	}

	s.mu.Lock()
	s.closed = true
	w := s.wal
	// Wake blocked tail readers (long-polling followers) so they observe
	// closed immediately instead of sleeping out their wait timer and
	// stalling server shutdown past the drain window.
	close(s.tailWake)
	s.tailWake = make(chan struct{})
	s.mu.Unlock()
	closeErr := w.close()
	if snapErr != nil {
		s.closeErr = snapErr
	} else {
		s.closeErr = closeErr
	}
	close(s.closeResult)
	return s.closeErr
}
