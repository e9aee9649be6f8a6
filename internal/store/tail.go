package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"sbmlcompose/internal/api"
	"sbmlcompose/internal/corpus"
)

// This file implements the primary side of log-shipping replication: a
// tailing reader over the WAL (a cursor by sequence number that survives
// segment rotation and compaction) and the HTTP feed a follower pulls
// from. The wire format is the WAL's own frame format, shipped verbatim —
// length + CRC + payload, exactly as on disk — so the follower re-runs
// the same CRC and decode checks recovery uses, and corruption anywhere
// along the path (disk, network, proxy) is caught before anything is
// applied.
//
// Two watermarks, both guarded by s.mu, make the feed safe and
// deterministic:
//
//   - ackedSeq: the highest sequence number acknowledged to its writer.
//     The feed never ships beyond it. A record written but not yet
//     fsynced (a group-commit batch in flight) can still be rolled back,
//     and a record that the primary rolled back but a follower applied
//     would fork history.
//   - compactedSeq: the highest sequence number compaction may have
//     removed from the segment files. A tail read starting below it gets
//     ErrCompacted — deterministically, whether or not the requested
//     bytes happen to survive in the live segment — and the follower
//     bootstraps from a snapshot image instead. Making the boundary a
//     watermark rather than "whatever is still on disk" is what pins the
//     snapshot-or-resume decision under concurrent compaction.

// ErrCompacted reports that a tail read asked for records at or below
// the compaction horizon: the WAL no longer (reliably) holds them, and
// the reader must bootstrap from a snapshot image instead.
var ErrCompacted = errors.New("requested records compacted away")

// TailBatch is one chunk of the replication feed: verbatim WAL frames
// for every record with FirstSeq <= seq <= LastSeq (gaps from failed
// appends excepted), plus the acknowledged watermark at read time. A
// zero-record batch (Frames empty) is a long-poll timeout at the tip.
type TailBatch struct {
	Frames   []byte
	Records  int
	FirstSeq uint64
	LastSeq  uint64
	AckedSeq uint64
	// LagBytes estimates the WAL bytes still owed past this batch — what
	// remains when the scan stops at maxBytes. It is an upper bound: the
	// remainder is sized from the segment files, which can include a
	// written-but-unacknowledged group-commit tail. 0 when the batch
	// reached the acknowledged tip.
	LagBytes int64
}

// ReadTail returns acknowledged WAL records with seq in (from, ackedSeq],
// up to roughly maxBytes of frames (at least one record is always
// returned when any is available; maxBytes <= 0 means 1 MiB). At the tip
// it blocks until a new record is acknowledged, ctx is done, or wait
// elapses (wait <= 0 polls without blocking); a timeout returns an empty
// batch and a nil error. from below the compaction horizon returns
// ErrCompacted.
func (s *Store) ReadTail(ctx context.Context, from uint64, maxBytes int, wait time.Duration) (TailBatch, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return TailBatch{}, fmt.Errorf("store: read tail: store is closed")
		}
		acked, compacted, wake := s.ackedSeq, s.compactedSeq, s.tailWake
		s.mu.Unlock()
		if from < compacted {
			return TailBatch{AckedSeq: acked}, ErrCompacted
		}
		if acked > from {
			tb, err := s.collectTail(from, acked, maxBytes)
			if err != nil {
				return tb, err
			}
			if tb.Records > 0 {
				tb.AckedSeq = acked
				return tb, nil
			}
			// Nothing collected although acked says records exist past
			// from: a compaction deleted segments between our watermark
			// snapshot and the scan. Fall through to wait for the wake its
			// compactedSeq bump sends, then re-decide (almost always
			// ErrCompacted on the next pass).
		}
		if wait <= 0 {
			return TailBatch{AckedSeq: acked}, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return TailBatch{AckedSeq: acked}, ctx.Err()
		case <-timeout:
			return TailBatch{AckedSeq: acked}, nil
		}
	}
}

// tailCursor remembers where a tail scan stopped: the byte offset just
// past the last frame consumed for a reader whose next request will say
// from=seq. Positions are reader-independent — they describe immutable
// acked bytes of an append-only segment, so any reader presenting the
// same from may resume there. The cursor never points past an
// unacknowledged frame (the scan stops before them), which is what makes
// it safe against the append path's failed-write rollback truncation.
type tailCursor struct {
	ok  bool
	seq uint64 // the from a resumed read must present
	gen uint64 // segment generation the offset lives in
	off int64  // offset just past the last consumed frame
}

// collectTail scans the segment files in generation order and gathers
// frames for records with seq in (from, acked], verbatim. Sequence
// numbers are monotone across generations, so the scan stops at the
// first record past acked (an unacknowledged group-commit tail that must
// not ship). A segment vanishing mid-scan (compaction won the race) is
// skipped — the caller re-checks the compaction watermark — and so is
// one still shorter than its magic (mid-creation, no records yet). A
// full-length unknown magic is an error, as in recovery: followers accept
// sequence gaps, so skipping it would silently lose its records. Both
// sbwal-v1 and sbwal-v2 segments ship. A torn or corrupt frame ends the
// segment, exactly as in recovery: everything before it is intact and
// usable.
//
// A follower walking the feed forward presents from = the previous
// batch's LastSeq, which matches the cached tailCursor: the scan then
// seeks straight to the next unshipped frame instead of re-reading and
// re-decoding the entire WAL per chunk (catch-up over a large log would
// otherwise cost O(WAL bytes) per chunk — quadratic in total). A cursor
// miss (different reader position, rotation, deleted segment) falls back
// to the full scan, which is always correct.
func (s *Store) collectTail(from, acked uint64, maxBytes int) (TailBatch, error) {
	var tb TailBatch
	s.mu.Lock()
	cur := s.tailCur
	s.mu.Unlock()
	hit := cur.ok && cur.seq == from
	pos := tailCursor{}
	save := func() {
		if !pos.ok {
			return
		}
		s.mu.Lock()
		s.tailCur = pos
		s.mu.Unlock()
	}
	segs, err := segmentPaths(s.dir)
	if err != nil {
		return tb, err
	}
	for si, path := range segs {
		gen, err := segmentGen(path)
		if err != nil {
			return tb, err
		}
		if hit && gen < cur.gen {
			continue // fully consumed by the position the cursor resumes at
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return tb, fmt.Errorf("store: read tail: %w", err)
		}
		if _, err := checkSegmentMagic(path, data); err != nil {
			return tb, fmt.Errorf("store: read tail: %w", err)
		}
		if len(data) < len(walMagic) {
			continue // segment mid-creation; it has no records yet
		}
		off := int64(len(walMagic))
		if hit && gen == cur.gen && cur.off >= off && cur.off <= int64(len(data)) {
			off = cur.off // seek straight past the already-consumed prefix
		}
		for {
			payload, end, ok := nextFrame(data, off)
			if !ok {
				break
			}
			rec, err := decodeRecord(payload)
			if err != nil {
				break
			}
			if rec.seq > acked {
				save()
				return tb, nil
			}
			if rec.seq > from {
				if tb.Records > 0 && len(tb.Frames)+int(end-off) > maxBytes {
					// Batch full with acked records still unread: size the
					// remainder (rest of this segment plus every later one)
					// so the follower can report lag in bytes. The tail of
					// the live segment may hold unacknowledged records too,
					// which makes this an upper bound.
					tb.LagBytes = int64(len(data)) - off
					for _, later := range segs[si+1:] {
						if fi, serr := os.Stat(later); serr == nil {
							if sz := fi.Size() - int64(len(walMagic)); sz > 0 {
								tb.LagBytes += sz
							}
						}
					}
					save()
					return tb, nil
				}
				tb.Frames = append(tb.Frames, data[off:end]...)
				if tb.Records == 0 {
					tb.FirstSeq = rec.seq
				}
				tb.LastSeq = rec.seq
				tb.Records++
			}
			off = end
			// Frames at or below from count as consumed too: the boundary
			// after them is exactly where a re-request with the same from
			// should resume.
			pos = tailCursor{ok: true, seq: from, gen: gen, off: off}
			if tb.Records > 0 {
				pos.seq = tb.LastSeq
			}
		}
	}
	save()
	return tb, nil
}

// PersistBatch implements corpus.BatchPersister: one WAL write and at
// most one fsync for the whole chunk (AppendBatch), logging adds as keyed
// records, and each add's Doc swapped for a locator of its record. It is
// the follower apply path's persist hook — and deliberately not gated by
// the read-only flag, because records arriving through it carry the
// primary's sequence numbers rather than minting local ones.
func (s *Store) PersistBatch(ops []corpus.BatchOp) error {
	recs := make([]BatchRecord, len(ops))
	for i, op := range ops {
		recs[i] = BatchRecord{Remove: op.Remove, Seq: op.Seq, ID: op.ID, Keys: op.Keys}
		if !op.Remove {
			b, err := op.Doc.Bytes()
			if err != nil {
				return fmt.Errorf("store: batch add %q: %w", op.ID, err)
			}
			recs[i].SBML = b
		}
	}
	if err := s.AppendBatch(recs); err != nil {
		return fmt.Errorf("%w: %w", err, corpus.ErrPersist)
	}
	for i := range ops {
		if !ops[i].Remove {
			ops[i].Doc = recs[i].Doc
		}
	}
	return nil
}

// SnapshotImage encodes the current corpus as a snapshot file image
// (sbsnap-2, verbatim what corpus.snap would hold) plus the sequence
// number it covers — the bootstrap payload for a follower that fell
// behind the compaction horizon. The dump runs under every shard's read
// lock with the sequence captured inside the same critical section, so
// the image is exactly as consistent as an on-disk snapshot.
func (s *Store) SnapshotImage(ctx context.Context) ([]byte, uint64, error) {
	var lastSeq uint64
	var closed bool
	blobs, err := s.c.DumpConsistentContext(ctx, func() {
		s.mu.Lock()
		lastSeq = s.seq
		closed = s.closed
		s.mu.Unlock()
	})
	if err == nil && closed {
		err = fmt.Errorf("store: snapshot image: store is closed")
	}
	if err != nil {
		return nil, 0, err
	}
	image, _, err := encodeSnapshotV2(lastSeq, s.fingerprint, blobs)
	if err != nil {
		return nil, 0, err
	}
	return image, lastSeq, nil
}

// ApplySnapshotImage replaces this store's entire durable and in-memory
// state with a primary's snapshot image — the follower's resync path when
// the feed answers ErrCompacted. The image must be a well-formed sbsnap-2
// file covering a sequence number beyond this store's (replication never
// moves backwards). On return the store's corpus, snapshot file, WAL and
// sequence state all agree with the image; old segments are gone and the
// next tail request resumes from the image's seq.
func (s *Store) ApplySnapshotImage(image []byte) error {
	sf, err := decodeSnapshotV2(image)
	if err != nil {
		return fmt.Errorf("store: apply snapshot image: %w", err)
	}
	// Prepare the in-memory entries before touching any state, exactly as
	// Open loads a snapshot (recover.go).
	models, _, err := s.snapshotModels(sf)
	if err != nil {
		return fmt.Errorf("store: apply snapshot image: %w", err)
	}

	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	// Rotate to a fresh segment, exactly like compaction: appends (there
	// should be none on a follower, but the invariants don't depend on
	// that) move to the new writer, pending group waiters resolve against
	// the old one.
	newGen, err := s.rotate(func() error {
		if sf.lastSeq <= s.seq {
			return fmt.Errorf("image seq %d not beyond local seq %d", sf.lastSeq, s.seq)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: apply snapshot image: %w", err)
	}

	// Install the image on disk first: after the rename, a crash at any
	// later point recovers to exactly the primary's snapshotted state
	// (surviving older segments hold records at or below the local seq,
	// which the image's higher seq makes no-ops at replay).
	snapF, err := writeSnapshotImage(s.dir, image)
	if err != nil {
		return fmt.Errorf("store: apply snapshot image: %w", err)
	}
	// The entries read from the file just installed, never from image.
	for i := range models {
		models[i].Doc = &fileDoc{f: snapF, span: sf.entries[i].core, snap: true}
	}
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
				return fmt.Errorf("store: apply snapshot image: drop segment %s: %w", path, err)
			}
		}
	}
	syncDir(s.dir)

	// Swap memory and sequence state together: the seq bump runs inside
	// ReplaceAll's all-shards critical section, so no reader can observe
	// the new contents with the old watermarks or vice versa.
	err = s.c.ReplaceAll(models, func() {
		s.mu.Lock()
		s.seq = sf.lastSeq
		s.ackedSeq = sf.lastSeq
		s.compactedSeq = sf.lastSeq
		s.tailCur = tailCursor{} // every cached position predates the wipe
		close(s.tailWake)
		s.tailWake = make(chan struct{})
		s.mu.Unlock()
	})
	if err != nil {
		return fmt.Errorf("store: apply snapshot image: %w", err)
	}
	s.snapshots.Add(1)
	return nil
}

// Replication feed HTTP surface. The handlers live on Store (rather than
// in the server binary) so the fault-injection tests can drive a real
// primary with httptest and the server merely mounts them. Errors answer
// in the /v1 error envelope (api.WriteJSON), request id included.

// Feed header and query-parameter names, shared by primary and follower.
const (
	hdrReplicationAcked    = "X-Replication-Acked-Seq"
	hdrReplicationLagBytes = "X-Replication-Lag-Bytes"
	hdrReplicationFirst    = "X-Replication-First-Seq"
	hdrReplicationLast     = "X-Replication-Last-Seq"
	hdrReplicationSnapSeq  = "X-Replication-Snapshot-Seq"
	// Identity headers (identity.go): the follower verifies both before
	// applying a single frame or image from a response.
	hdrReplicationCluster = "X-Replication-Cluster-Id"
	hdrReplicationEpoch   = "X-Replication-Epoch"
)

// ServeReplicate is the GET /v1/replicate handler: ?from=<seq> (last
// sequence the follower holds), optional ?max_bytes= and ?wait_ms=
// (long-poll at the tip, default 10s, capped at 60s). The 200 body is
// raw WAL frames; X-Replication-Acked-Seq carries the primary's
// acknowledged watermark (an empty body with that header is a long-poll
// timeout). A from below the compaction horizon answers 410 Gone with
// code "compacted": fetch /v1/replicate/snapshot instead.
func (s *Store) ServeReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var from uint64
	if v := q.Get("from"); v != "" {
		var err error
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "from must be an unsigned integer", Code: "bad_request"})
			return
		}
	}
	maxBytes := 1 << 20
	if v := q.Get("max_bytes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "max_bytes must be a positive integer", Code: "bad_request"})
			return
		}
		if n > 8<<20 {
			n = 8 << 20
		}
		maxBytes = n
	}
	wait := 10 * time.Second
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: "wait_ms must be a non-negative integer", Code: "bad_request"})
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > time.Minute {
			wait = time.Minute
		}
	}
	ident, err := s.ensureIdentity()
	if err != nil {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error(), Code: "internal"})
		return
	}
	w.Header().Set(hdrReplicationCluster, ident.ClusterID)
	w.Header().Set(hdrReplicationEpoch, strconv.FormatUint(ident.Epoch, 10))
	tb, err := s.ReadTail(r.Context(), from, maxBytes, wait)
	switch {
	case errors.Is(err, ErrCompacted):
		api.WriteJSON(w, http.StatusGone, api.ErrorResponse{
			Error: fmt.Sprintf("records after seq %d are compacted; bootstrap from /v1/replicate/snapshot", from),
			Code:  "compacted",
		})
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return // client went away; nothing to say
	case err != nil:
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error(), Code: "internal"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(hdrReplicationAcked, strconv.FormatUint(tb.AckedSeq, 10))
	w.Header().Set(hdrReplicationLagBytes, strconv.FormatInt(tb.LagBytes, 10))
	if tb.Records > 0 {
		w.Header().Set(hdrReplicationFirst, strconv.FormatUint(tb.FirstSeq, 10))
		w.Header().Set(hdrReplicationLast, strconv.FormatUint(tb.LastSeq, 10))
	}
	// An explicit Content-Length makes a cut transfer unambiguous on the
	// follower: its ReadAll reports io.ErrUnexpectedEOF instead of
	// returning a silently truncated body.
	w.Header().Set("Content-Length", strconv.Itoa(len(tb.Frames)))
	_, _ = w.Write(tb.Frames)
}

// ServeReplicateSnapshot is the GET /v1/replicate/snapshot handler: the
// body is a complete sbsnap-2 snapshot image of the current corpus and
// X-Replication-Snapshot-Seq the sequence number it covers.
func (s *Store) ServeReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	ident, err := s.ensureIdentity()
	if err != nil {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error(), Code: "internal"})
		return
	}
	image, seq, err := s.SnapshotImage(r.Context())
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return
		}
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error(), Code: "internal"})
		return
	}
	w.Header().Set(hdrReplicationCluster, ident.ClusterID)
	w.Header().Set(hdrReplicationEpoch, strconv.FormatUint(ident.Epoch, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(hdrReplicationSnapSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(image)))
	_, _ = w.Write(image)
}
