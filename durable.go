package sbmlcompose

import (
	"sbmlcompose/internal/store"
)

// This file is the facade over the durable-store subsystem
// (internal/store): the write-ahead log + snapshot layer that makes a
// Corpus survive restarts. OpenCorpus recovers (or creates) a store whose
// corpus is byte-identical — ids, match-key indexes, search rankings — to
// one that never restarted.

// CorpusStore couples a recovered Corpus to its WAL and snapshot files.
// Every Add/Remove on the corpus is logged durably before it becomes
// visible; Snapshot compacts the log; Close takes a graceful-shutdown
// snapshot so the next open is a pure snapshot load.
type CorpusStore = store.Store

// StoreOptions configures OpenCorpus: the recovered corpus's options plus
// the WAL fsync policy and the auto-compaction threshold.
type StoreOptions = store.Options

// RecoveryStats describes what OpenCorpus found and replayed (snapshot
// models, WAL records applied, torn-tail bytes dropped).
type RecoveryStats = store.RecoveryStats

// StoreStatus is a point-in-time health view of a CorpusStore.
type StoreStatus = store.Status

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy = store.FsyncPolicy

// The WAL durability policies: acknowledge no append before an fsync
// covers it (no acknowledged write is ever lost; concurrent appends share
// one group-committed sync), sync on a timer, or leave flushing to the OS.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncNever    = store.FsyncNever
)

// ErrCorruptSnapshot marks a snapshot file recovery refuses to load:
// unlike a torn WAL tail (which only ever holds unacknowledged writes and
// is dropped silently), a corrupt snapshot would lose the whole corpus if
// ignored.
var ErrCorruptSnapshot = store.ErrCorruptSnapshot

// Replica keeps a read-only CorpusStore converged with a primary's WAL
// feed over HTTP: frames are CRC-verified, installed from the match keys
// they carry when both stores share match options (and through the
// recovery parse pool otherwise), and persisted locally with one fsync
// per received chunk,
// so the follower's durable log is always a prefix of the primary's
// acknowledged log. Stop halts replication (the store stays read-only);
// Promote halts it and lifts the read-only gate, making the store a
// primary serving exactly the old primary's last acknowledged state.
type Replica = store.Replica

// ReplicaOptions configures StartReplica: the primary's base URL plus
// fetch sizing and the capped exponential backoff bounds.
type ReplicaOptions = store.ReplicaOptions

// ReplicaStatus is a point-in-time replication health view (role, last
// applied sequence, lag in records and bytes, staleness ages in seconds,
// reconnect count).
type ReplicaStatus = store.ReplicaStatus

// StoreMetrics carries the store's durability instruments (WAL append
// and fsync latency, group-commit batch sizes, snapshot duration); pass
// one via StoreOptions.Metrics to wire a store into a metrics registry.
// A nil StoreMetrics (the default) keeps the store entirely uninstrumented.
type StoreMetrics = store.Metrics

// ReplicaMetrics carries the follower-side replication instruments
// (chunk fetch/verify/apply timings, reconnects, snapshot resyncs);
// pass one via ReplicaOptions.Metrics.
type ReplicaMetrics = store.ReplicaMetrics

// ErrLogCompacted reports that a replication tail read asked for records
// at or below the primary's compaction horizon; the follower bootstraps
// from a snapshot image instead (Replica does this automatically).
var ErrLogCompacted = store.ErrCompacted

// ErrReplicaReadOnly marks mutations rejected because the store is a
// follower replica; matchable with errors.Is through the corpus's
// persist-error wrapping. Promotion lifts the gate.
var ErrReplicaReadOnly = store.ErrReadOnly

// StartReplica puts st into read-only follower mode and starts pulling
// the primary's replication feed (GET /v1/replicate on a sbmlserved
// primary). Every mutation through the store's corpus fails with
// ErrReplicaReadOnly until Promote.
func StartReplica(st *CorpusStore, opts ReplicaOptions) (*Replica, error) {
	return store.StartReplica(st, opts)
}

// OpenCorpus opens (or creates) a durable corpus in dir: the snapshot is
// loaded, the WAL tail replayed on top of it, and the returned store's
// Corpus() is ready to serve with every subsequent mutation persisted. A
// nil opts (or zero-valued corpus match options) means heavy semantics
// with the built-in synonym table, like NewCorpus, and the default
// durability policy (fsync every append, 8 MiB compaction threshold).
func OpenCorpus(dir string, opts *StoreOptions) (*CorpusStore, error) {
	o := StoreOptions{}
	if opts != nil {
		o = *opts
	}
	o.Corpus.Match = resolveOptions(&o.Corpus.Match)
	return store.Open(dir, o)
}
