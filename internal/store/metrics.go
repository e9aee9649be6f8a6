package store

import "sbmlcompose/internal/obs"

// Metrics collects the store's durability instrumentation. Every field is
// optional: a nil histogram silently drops observations (obs types are
// nil-safe), and a nil *Metrics skips even the clock reads, so an
// unconfigured store pays nothing. The server wires these from its
// registry; library users normally leave Options.Metrics nil.
type Metrics struct {
	// AppendSeconds observes the full latency of each append call
	// (PersistAdd/PersistRemove/AppendBatch), including the group-commit
	// wait under FsyncAlways — what a writer actually experiences.
	AppendSeconds *obs.Histogram
	// FsyncSeconds observes each physical WAL fsync, whichever path
	// triggered it (group commit, rollback, interval timer, rotation).
	FsyncSeconds *obs.Histogram
	// GroupBatchRecords observes how many records each successful
	// FsyncAlways group commit acknowledged — the batching the fsync
	// amortizes over.
	GroupBatchRecords *obs.Histogram
	// SnapshotSeconds observes the duration of each successful snapshot
	// (manual, automatic compaction, and on close).
	SnapshotSeconds *obs.Histogram
}

// ReplicaMetrics collects the follower-side replication instrumentation;
// same nil semantics as Metrics.
type ReplicaMetrics struct {
	// FetchSeconds observes each successful feed fetch (request issued to
	// body fully read), excluding long-poll timeouts that shipped nothing.
	FetchSeconds *obs.Histogram
	// VerifySeconds observes the frame verification (CRC + decode) of
	// each non-empty received chunk.
	VerifySeconds *obs.Histogram
	// ApplySeconds observes the parse+apply of each non-empty verified
	// chunk (worker-pool parse, WAL batch append, corpus install).
	ApplySeconds *obs.Histogram
	// Reconnects counts contact re-established after at least one
	// failure; SnapshotResyncs counts bootstraps through a full snapshot
	// image.
	Reconnects      *obs.Counter
	SnapshotResyncs *obs.Counter
}
