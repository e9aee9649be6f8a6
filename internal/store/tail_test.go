package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbmlcompose/internal/api"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// Tests for the replication tail reader: what ships, what blocks, and —
// the pinned satellite — that a compaction racing the cursor always
// yields a deterministic snapshot-or-resume decision.

// applyShadow applies decoded feed records to an id-set shadow, failing
// on an op it does not know rather than misclassifying it.
func applyShadow(t *testing.T, shadow map[string]bool, recs []walRecord) {
	t.Helper()
	for _, rec := range recs {
		switch rec.op {
		case opAdd, opAddKeys:
			shadow[rec.id] = true
		case opRemove:
			delete(shadow, rec.id)
		default:
			t.Fatalf("seq %d: unknown op %d", rec.seq, rec.op)
		}
	}
}

// decodeFrames decodes a TailBatch's frame buffer back into records,
// failing the test on any framing or decode error (the feed must only
// ever ship intact frames).
func decodeFrames(t *testing.T, frames []byte) []walRecord {
	t.Helper()
	var recs []walRecord
	off := int64(0)
	for off < int64(len(frames)) {
		payload, end, ok := nextFrame(frames, off)
		if !ok {
			t.Fatalf("torn frame at offset %d of %d-byte feed buffer", off, len(frames))
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("undecodable record at offset %d: %v", off, err)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs
}

func TestReadTailShipsAckedRecords(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	for i := 0; i < 5; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	mustRemove(t, s.Corpus(), testModel(2).ID)

	tb, err := s.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatalf("ReadTail: %v", err)
	}
	recs := decodeFrames(t, tb.Frames)
	if len(recs) != 6 || tb.Records != 6 {
		t.Fatalf("got %d records (batch says %d), want 6", len(recs), tb.Records)
	}
	if tb.FirstSeq != 1 || tb.LastSeq != 6 || tb.AckedSeq != 6 {
		t.Fatalf("batch seqs first=%d last=%d acked=%d, want 1/6/6", tb.FirstSeq, tb.LastSeq, tb.AckedSeq)
	}
	if recs[5].op != opRemove || recs[5].id != testModel(2).ID {
		t.Fatalf("last record = op %d id %q, want the remove of %q", recs[5].op, recs[5].id, testModel(2).ID)
	}
	for i, rec := range recs {
		if rec.seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.seq, i+1)
		}
	}

	// A mid-log cursor gets exactly the records past it.
	tb, err = s.ReadTail(context.Background(), 4, 0, 0)
	if err != nil {
		t.Fatalf("ReadTail(from=4): %v", err)
	}
	recs = decodeFrames(t, tb.Frames)
	if len(recs) != 2 || recs[0].seq != 5 || recs[1].seq != 6 {
		t.Fatalf("from=4 shipped %d records, want seqs [5 6]", len(recs))
	}

	// At the tip, a non-blocking poll returns an empty batch.
	tb, err = s.ReadTail(context.Background(), 6, 0, 0)
	if err != nil || tb.Records != 0 || tb.AckedSeq != 6 {
		t.Fatalf("tip poll: records=%d acked=%d err=%v, want empty batch acked 6", tb.Records, tb.AckedSeq, err)
	}
}

func TestReadTailMaxBytesPaginates(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	const n = 8
	for i := 0; i < n; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	// Tiny maxBytes: every batch still carries at least one record, and
	// walking the cursor forward drains the log in order.
	var seqs []uint64
	from := uint64(0)
	for {
		tb, err := s.ReadTail(context.Background(), from, 1, 0)
		if err != nil {
			t.Fatalf("ReadTail(from=%d): %v", from, err)
		}
		if tb.Records == 0 {
			break
		}
		if tb.Records != 1 {
			t.Fatalf("maxBytes=1 shipped %d records in one batch, want 1", tb.Records)
		}
		for _, rec := range decodeFrames(t, tb.Frames) {
			seqs = append(seqs, rec.seq)
		}
		from = tb.LastSeq
	}
	if len(seqs) != n {
		t.Fatalf("paginated walk got %d records, want %d", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("walk out of order at %d: seq %d", i, seq)
		}
	}
}

func TestReadTailLongPollWakesOnAppend(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	mustAdd(t, s.Corpus(), testModel(0))

	got := make(chan TailBatch, 1)
	errc := make(chan error, 1)
	go func() {
		tb, err := s.ReadTail(context.Background(), 1, 0, 30*time.Second)
		if err != nil {
			errc <- err
			return
		}
		got <- tb
	}()
	time.Sleep(50 * time.Millisecond) // let the reader reach the tip wait
	mustAdd(t, s.Corpus(), testModel(1))
	select {
	case tb := <-got:
		recs := decodeFrames(t, tb.Frames)
		if len(recs) != 1 || recs[0].id != testModel(1).ID {
			t.Fatalf("woken batch = %d records, want the new add", len(recs))
		}
	case err := <-errc:
		t.Fatalf("ReadTail: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll reader never woke on append")
	}
}

func TestReadTailLongPollTimesOutEmpty(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	mustAdd(t, s.Corpus(), testModel(0))
	t0 := time.Now()
	tb, err := s.ReadTail(context.Background(), 1, 0, 80*time.Millisecond)
	if err != nil || tb.Records != 0 {
		t.Fatalf("timeout poll: records=%d err=%v, want empty nil", tb.Records, err)
	}
	if time.Since(t0) < 60*time.Millisecond {
		t.Fatal("long poll returned before its wait elapsed")
	}
}

func TestReadTailHonorsContext(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := s.ReadTail(ctx, 0, 0, 30*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReadTail: err = %v, want context.Canceled", err)
	}
}

// TestReadTailCompactionDecisionDeterministic is the pinned satellite:
// for every interleaving of compaction point and cursor position, the
// feed's answer is determined by the watermarks alone — ErrCompacted
// exactly when the cursor is below the compaction's captured seq, the
// precise surviving record range otherwise — never by which bytes happen
// to remain on disk.
func TestReadTailCompactionDecisionDeterministic(t *testing.T) {
	const n = 4
	for k := 0; k <= n; k++ {
		k := k
		t.Run(fmt.Sprintf("compactAfter%d", k), func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), testOptions())
			defer s.Close()
			for i := 0; i < k; i++ {
				mustAdd(t, s.Corpus(), testModel(i))
			}
			if err := s.Snapshot(); err != nil {
				t.Fatalf("compact after %d: %v", k, err)
			}
			for i := k; i < n; i++ {
				mustAdd(t, s.Corpus(), testModel(i))
			}
			compacted := uint64(k) // the snapshot covered seqs 1..k
			last := uint64(n)
			for from := uint64(0); from <= last; from++ {
				tb, err := s.ReadTail(context.Background(), from, 0, 0)
				if from < compacted {
					if !errors.Is(err, ErrCompacted) {
						t.Fatalf("from=%d below horizon %d: err = %v, want ErrCompacted", from, compacted, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("from=%d at/above horizon %d: %v", from, compacted, err)
				}
				recs := decodeFrames(t, tb.Frames)
				if want := int(last - from); len(recs) != want {
					t.Fatalf("from=%d shipped %d records, want %d", from, len(recs), want)
				}
				for i, rec := range recs {
					if rec.seq != from+uint64(i)+1 {
						t.Fatalf("from=%d record %d has seq %d", from, i, rec.seq)
					}
				}
			}
		})
	}
}

// TestReadTailConcurrentCompaction races a tailing cursor against
// writers and compactions (run under -race in CI): the cursor applies
// records to a shadow set, falls back to the snapshot image whenever the
// horizon passes it, and must end holding exactly the corpus's ids.
func TestReadTailConcurrentCompaction(t *testing.T) {
	opts := testOptions()
	opts.CompactBytes = -1 // only explicit snapshots rotate
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()

	const n = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < n; i++ {
			mustAdd(t, s.Corpus(), testModel(i))
			if i%7 == 3 {
				mustRemove(t, s.Corpus(), testModel(i).ID)
			}
		}
	}()
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	shadow := make(map[string]bool)
	var cursor uint64
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("cursor never converged")
		default:
		}
		tb, err := s.ReadTail(context.Background(), cursor, 0, 50*time.Millisecond)
		if errors.Is(err, ErrCompacted) {
			image, seq, ierr := s.SnapshotImage(context.Background())
			if ierr != nil {
				t.Fatalf("snapshot image: %v", ierr)
			}
			sf, derr := decodeSnapshotV2(image)
			if derr != nil {
				t.Fatalf("decode own image: %v", derr)
			}
			shadow = make(map[string]bool)
			for _, e := range sf.entries {
				shadow[e.id] = true
			}
			cursor = seq
			continue
		}
		if err != nil {
			t.Fatalf("ReadTail(from=%d): %v", cursor, err)
		}
		applyShadow(t, shadow, decodeFrames(t, tb.Frames))
		if tb.Records > 0 {
			cursor = tb.LastSeq
		}
		// Converged when the writer is done and the cursor caught up.
		if cursor == s.LastSeq() && s.Corpus().Len() > 0 && cursorCaughtUp(s, cursor, n) {
			break
		}
	}
	wg.Wait()
	// One final drain after both goroutines stopped, then compare.
	for {
		tb, err := s.ReadTail(context.Background(), cursor, 0, 0)
		if errors.Is(err, ErrCompacted) {
			image, seq, ierr := s.SnapshotImage(context.Background())
			if ierr != nil {
				t.Fatalf("snapshot image: %v", ierr)
			}
			sf, derr := decodeSnapshotV2(image)
			if derr != nil {
				t.Fatalf("decode own image: %v", derr)
			}
			shadow = make(map[string]bool)
			for _, e := range sf.entries {
				shadow[e.id] = true
			}
			cursor = seq
			continue
		}
		if err != nil {
			t.Fatalf("final drain: %v", err)
		}
		if tb.Records == 0 {
			break
		}
		applyShadow(t, shadow, decodeFrames(t, tb.Frames))
		cursor = tb.LastSeq
	}
	want := s.Corpus().IDs()
	if len(shadow) != len(want) {
		t.Fatalf("cursor shadow has %d ids, corpus has %d", len(shadow), len(want))
	}
	for _, id := range want {
		if !shadow[id] {
			t.Fatalf("cursor shadow missing %q", id)
		}
	}
}

// cursorCaughtUp reports that the writer finished its workload (LastSeq
// stable at the full count) — a cheap convergence check for the race
// test's main loop.
func cursorCaughtUp(s *Store, cursor uint64, n int) bool {
	return cursor >= uint64(n)
}

func TestSnapshotImageBootstrapsFreshStore(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	var adds []*sbml.Model
	for i := 0; i < 6; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, primary.Corpus(), m)
	}
	mustRemove(t, primary.Corpus(), testModel(4).ID)

	image, seq, err := primary.SnapshotImage(context.Background())
	if err != nil {
		t.Fatalf("SnapshotImage: %v", err)
	}
	if seq != primary.LastSeq() {
		t.Fatalf("image seq %d, want %d", seq, primary.LastSeq())
	}

	fdir := t.TempDir()
	follower := mustOpen(t, fdir, testOptions())
	if err := follower.ApplySnapshotImage(image); err != nil {
		t.Fatalf("ApplySnapshotImage: %v", err)
	}
	if follower.LastSeq() != seq {
		t.Fatalf("follower seq %d after bootstrap, want %d", follower.LastSeq(), seq)
	}
	assertCorporaEquivalent(t, follower.Corpus(), primary.Corpus(), []*sbml.Model{adds[1], adds[3]})

	// Bootstrapped state is durable: a reopen recovers it bit-for-bit.
	if err := follower.Close(); err != nil {
		t.Fatalf("close follower: %v", err)
	}
	reopened := mustOpen(t, fdir, testOptions())
	defer reopened.Close()
	if reopened.LastSeq() != seq {
		t.Fatalf("reopened follower seq %d, want %d", reopened.LastSeq(), seq)
	}
	assertCorporaEquivalent(t, reopened.Corpus(), primary.Corpus(), []*sbml.Model{adds[1], adds[3]})
}

func TestApplySnapshotImageRefusesRegressAndGarbage(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	mustAdd(t, primary.Corpus(), testModel(0))
	image, _, err := primary.SnapshotImage(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, follower.Corpus(), testModel(10+i))
	}
	// The follower is already past the image's seq: applying it would
	// move history backwards.
	if err := follower.ApplySnapshotImage(image); err == nil {
		t.Fatal("ApplySnapshotImage accepted a seq regress")
	}
	if follower.Corpus().Len() != 3 {
		t.Fatalf("refused image still mutated the corpus: %d models", follower.Corpus().Len())
	}
	// Garbage and truncation are rejected whole.
	if err := follower.ApplySnapshotImage([]byte("not a snapshot")); err == nil {
		t.Fatal("ApplySnapshotImage accepted garbage")
	}
	corrupt := append([]byte(nil), image...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := follower.ApplySnapshotImage(corrupt); err == nil {
		t.Fatal("ApplySnapshotImage accepted a bit-flipped image")
	}
}

func TestReadOnlyGateRejectsLocalMutations(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	mustAdd(t, s.Corpus(), testModel(0))

	s.readOnly.Store(true)
	if _, err := s.Corpus().Add(testModel(1)); !errors.Is(err, ErrReadOnly) || !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("add on read-only store: err = %v, want ErrReadOnly wrapped in ErrPersist", err)
	}
	if _, err := s.Corpus().Remove(testModel(0).ID); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("remove on read-only store: err = %v, want ErrReadOnly", err)
	}
	// The replication apply path stays open: AppendBatch is the replica's
	// own writer and must not be gated.
	blob := []byte(sbml.WrapModel(testModel(1)).String())
	if err := s.AppendBatch([]BatchRecord{{Seq: s.LastSeq() + 1, ID: testModel(1).ID, SBML: blob}}); err != nil {
		t.Fatalf("AppendBatch on read-only store: %v", err)
	}
	// Promotion lifts the gate.
	s.readOnly.Store(false)
	mustAdd(t, s.Corpus(), testModel(2))
}

// TestServeReplicateProtocol drives the HTTP handlers directly: bad
// parameters answer machine-readable 400s, a compacted cursor answers
// 410 with the "compacted" code, and a good request carries the
// watermark headers plus decodable frames.
func TestServeReplicateProtocol(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}

	get := func(query string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeReplicate(w, httptest.NewRequest("GET", "/v1/replicate?"+query, nil))
		return w
	}
	for _, bad := range []string{"from=abc", "from=-1", "max_bytes=0", "max_bytes=x", "wait_ms=-5", "wait_ms=x"} {
		if w := get(bad); w.Code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", bad, w.Code)
		}
	}

	w := get("from=0&wait_ms=0&max_bytes=99999999") // oversize cap is silent
	if w.Code != http.StatusOK {
		t.Fatalf("good request: %d (%s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Replication-Acked-Seq"); got != "3" {
		t.Fatalf("acked header %q, want 3", got)
	}
	if f, l := w.Header().Get("X-Replication-First-Seq"), w.Header().Get("X-Replication-Last-Seq"); f != "1" || l != "3" {
		t.Fatalf("first/last headers %q/%q, want 1/3", f, l)
	}
	if recs := decodeFrames(t, w.Body.Bytes()); len(recs) != 3 {
		t.Fatalf("body decoded to %d records, want 3", len(recs))
	}

	// An at-tip non-blocking poll: 200, empty body, acked header present.
	if w = get("from=3&wait_ms=0"); w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Fatalf("tip poll: %d with %d body bytes", w.Code, w.Body.Len())
	}

	// Compact, then ask below the horizon.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w = get("from=1&wait_ms=0")
	if w.Code != http.StatusGone {
		t.Fatalf("below-horizon request: %d, want 410", w.Code)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Code != "compacted" {
		t.Fatalf("410 body %q (err %v), want code \"compacted\"", w.Body.String(), err)
	}

	// The snapshot endpoint answers an installable image.
	sw := httptest.NewRecorder()
	s.ServeReplicateSnapshot(sw, httptest.NewRequest("GET", "/v1/replicate/snapshot", nil))
	if sw.Code != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d", sw.Code)
	}
	if got := sw.Header().Get("X-Replication-Snapshot-Seq"); got != "3" {
		t.Fatalf("snapshot seq header %q, want 3", got)
	}
	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	if err := follower.ApplySnapshotImage(sw.Body.Bytes()); err != nil {
		t.Fatalf("image from endpoint: %v", err)
	}
	if follower.LastSeq() != 3 {
		t.Fatalf("bootstrapped seq %d, want 3", follower.LastSeq())
	}

	// A closed store fails both endpoints loudly rather than hanging.
	closed := mustOpen(t, t.TempDir(), testOptions())
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	closed.ServeReplicate(w, httptest.NewRequest("GET", "/v1/replicate?wait_ms=0", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("replicate on closed store: %d, want 500", w.Code)
	}
	w = httptest.NewRecorder()
	closed.ServeReplicateSnapshot(w, httptest.NewRequest("GET", "/v1/replicate/snapshot", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("snapshot on closed store: %d, want 500", w.Code)
	}
}

// TestReadTailIntervalPolicyShipsOnlyDurableRecords: under
// FsyncInterval the feed's watermark must trail the sync, not the
// write — otherwise a primary crash can lose records a follower already
// holds durably, and the follower is no longer a prefix of the restarted
// primary. Written-but-unsynced records stay unshippable until a timer
// sync (or a snapshot, which is durable by construction) covers them.
func TestReadTailIntervalPolicyShipsOnlyDurableRecords(t *testing.T) {
	opts := testOptions()
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = time.Hour // no timer sync during the test
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	// Written, acknowledged to the writer, but not yet durable: the feed
	// must not ship them.
	tb, err := s.ReadTail(context.Background(), 0, 0, 0)
	if err != nil || tb.Records != 0 || tb.AckedSeq != 0 {
		t.Fatalf("unsynced records shipped: records=%d acked=%d err=%v, want none", tb.Records, tb.AckedSeq, err)
	}
	// A snapshot is cold-path durable regardless of policy: the covered
	// records become shippable (and, having been compacted, a reader
	// below the horizon is deterministically sent to the snapshot).
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadTail(context.Background(), 0, 0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("below-horizon read after durable snapshot: err = %v, want ErrCompacted", err)
	}
	tb, err = s.ReadTail(context.Background(), 3, 0, 0)
	if err != nil || tb.AckedSeq != 3 {
		t.Fatalf("post-snapshot watermark: acked=%d err=%v, want 3", tb.AckedSeq, err)
	}
	// New writes are again gated until the next sync point.
	mustAdd(t, s.Corpus(), testModel(10))
	tb, err = s.ReadTail(context.Background(), 3, 0, 0)
	if err != nil || tb.Records != 0 || tb.AckedSeq != 3 {
		t.Fatalf("unsynced post-snapshot record shipped: records=%d acked=%d err=%v", tb.Records, tb.AckedSeq, err)
	}

	// With a short interval, the fsync loop advances the watermark on its
	// own and the records ship.
	opts.FsyncEvery = 20 * time.Millisecond
	s2 := mustOpen(t, t.TempDir(), opts)
	defer s2.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s2.Corpus(), testModel(i))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		tb, err := s2.ReadTail(context.Background(), 0, 0, 0)
		if err != nil {
			t.Fatalf("ReadTail: %v", err)
		}
		if tb.Records == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fsync loop never made %d records shippable (got %d)", 3, tb.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadTailIntervalFsyncFailureWedges: a failed timer sync may drop
// the dirty pages it failed on, so a later successful sync does not make
// the records before it durable. The failure must wedge the writer: no
// later tick may advance the feed's watermark past the records it
// covered, and later appends fail rather than pile up behind them.
func TestReadTailIntervalFsyncFailureWedges(t *testing.T) {
	opts := testOptions()
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = 2 * time.Millisecond
	opts.CompactBytes = -1
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	// Arm a hook that fails the next sync and passes every later one. The
	// loop syncs under mu, so no tick runs between arming and reading the
	// watermark the failure must pin.
	var armed atomic.Bool
	failed := make(chan struct{})
	s.mu.Lock()
	armed.Store(true)
	s.wal.syncHook = func(f *os.File) error {
		if armed.CompareAndSwap(true, false) {
			close(failed)
			return errors.New("injected interval fsync failure")
		}
		return f.Sync()
	}
	pre := s.ackedSeq
	s.mu.Unlock()
	// This add lands on either side of the failing tick: before it, the
	// record is covered by the failed sync; after it, the writer is
	// already wedged and the add fails. Either way it must never ship.
	_, _ = s.Corpus().Add(testModel(3))
	select {
	case <-failed:
	case <-time.After(30 * time.Second):
		t.Fatal("the interval loop never synced")
	}
	time.Sleep(50 * time.Millisecond) // many passing ticks
	tb, err := s.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.AckedSeq > pre || tb.LastSeq > pre {
		t.Fatalf("feed watermark %d (last shipped %d) passed the pre-failure seq %d", tb.AckedSeq, tb.LastSeq, pre)
	}
	_, err = s.Corpus().Add(testModel(4))
	if !errors.Is(err, corpus.ErrPersist) || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("add after failed interval sync: err = %v, want a wedged persist error", err)
	}
	// A snapshot makes what memory holds durable, but the wedge outlives
	// its rotation: the store takes no write until it is reopened.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Corpus().Add(testModel(4)); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("add after rotating a wedged writer: err = %v, want a wedged persist error", err)
	}
}

// TestRotationCloseSyncFailureWedges: rotation syncs the segment it
// closes, and when that sync fails the records still unsynced in it may
// never reach the disk. The failure must wedge the new writer, so a tick
// on the new segment cannot acknowledge them and later appends fail. The
// test drives the interval ticks itself, so exactly one sync of the old
// segment (the rotation's close) runs under the failing hook.
func TestRotationCloseSyncFailureWedges(t *testing.T) {
	opts := testOptions()
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = time.Hour
	opts.CompactBytes = -1
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := 0; i < 3; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	s.intervalSync()
	tb, err := s.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pre := tb.AckedSeq
	if pre != 3 {
		t.Fatalf("acked seq after a tick = %d, want 3", pre)
	}
	mustAdd(t, s.Corpus(), testModel(3)) // written, not yet synced
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.wal.syncHook = func(*os.File) error {
		cancel() // the snapshot aborts once the rotation is done
		return errors.New("injected close-sync failure")
	}
	s.mu.Unlock()
	if err := s.SnapshotContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("snapshot after a failed close-sync: err = %v, want context.Canceled", err)
	}
	s.intervalSync()
	if tb, err = s.ReadTail(context.Background(), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if tb.AckedSeq > pre {
		t.Fatalf("a tick after the failed close-sync acked seq %d, past the last synced seq %d", tb.AckedSeq, pre)
	}
	_, err = s.Corpus().Add(testModel(4))
	if !errors.Is(err, corpus.ErrPersist) || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("add after a failed close-sync: err = %v, want a wedged persist error", err)
	}
}

// TestCloseWakesBlockedTailReaders: a long-polling follower blocked at
// the tip must observe Close immediately — not after its wait timer —
// or server shutdown stalls past the drain window.
func TestCloseWakesBlockedTailReaders(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	mustAdd(t, s.Corpus(), testModel(0))
	errc := make(chan error, 1)
	go func() {
		_, err := s.ReadTail(context.Background(), 1, 0, 5*time.Minute)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the reader reach the tip wait
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("woken reader returned %v, want a store-closed error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked tail reader slept through Close")
	}
}

// TestReadTailCursorResumesAcrossRotationAndInterleaving: the cached
// tail cursor is a pure optimization — walks that hit it, miss it
// (interleaved readers at different positions), or land in a compacted
// segment must all ship exactly the right records.
func TestReadTailCursorResumesAcrossRotationAndInterleaving(t *testing.T) {
	opts := testOptions()
	opts.CompactBytes = -1
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := 0; i < 5; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	// Sequential walk primes the cursor at the tip.
	tb, err := s.ReadTail(context.Background(), 0, 0, 0)
	if err != nil || tb.LastSeq != 5 {
		t.Fatalf("prime walk: last=%d err=%v", tb.LastSeq, err)
	}
	// Rotation deletes the segment the cursor points into; the next read
	// must fall back cleanly and ship the post-rotation records.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	tb, err = s.ReadTail(context.Background(), 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeFrames(t, tb.Frames)
	if len(recs) != 3 || recs[0].seq != 6 || recs[2].seq != 8 {
		t.Fatalf("post-rotation read shipped %d records (first %d), want seqs [6 7 8]", len(recs), recs[0].seq)
	}
	// Interleaved readers at different positions: each gets exactly its
	// range, cursor hits or not.
	for _, from := range []uint64{6, 5, 7, 5, 8, 6} {
		tb, err := s.ReadTail(context.Background(), from, 0, 0)
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		recs := decodeFrames(t, tb.Frames)
		if want := int(8 - from); len(recs) != want {
			t.Fatalf("from=%d shipped %d records, want %d", from, len(recs), want)
		}
		for i, rec := range recs {
			if rec.seq != from+uint64(i)+1 {
				t.Fatalf("from=%d record %d has seq %d", from, i, rec.seq)
			}
		}
	}
}

// TestReplicaResyncFailureSurfacesInStatus: a primary whose feed says
// "compacted" but whose snapshot endpoint is broken leaves the follower
// retrying with the failure visible in Status.
func TestReplicaResyncFailureSurfacesInStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusGone, api.ErrorResponse{Error: "bootstrap from snapshot", Code: "compacted"})
	})
	mux.HandleFunc("GET /v1/replicate/snapshot", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: "disk on fire", Code: "internal"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	rep, err := StartReplica(follower, ReplicaOptions{
		PrimaryURL: ts.URL,
		PollWait:   50 * time.Millisecond,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := rep.Status()
		if !st.Connected && strings.Contains(st.LastError, "snapshot resync") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("resync failure never surfaced: %+v", rep.Status())
}

// TestReplicaStopIdempotentAndStartValidation: Stop twice is safe, and
// StartReplica refuses a missing primary URL without gating the store.
func TestReplicaStopIdempotentAndStartValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	if _, err := StartReplica(s, ReplicaOptions{}); err == nil {
		t.Fatal("StartReplica accepted an empty primary URL")
	}
	if s.readOnly.Load() {
		t.Fatal("failed StartReplica left the store read-only")
	}
	rep, err := StartReplica(s, fastReplicaOptions("http://127.0.0.1:9"))
	if err != nil {
		t.Fatal(err)
	}
	rep.Stop()
	rep.Stop() // must not panic or hang
	if !s.readOnly.Load() {
		t.Fatal("Stop lifted the read-only gate; only Promote may")
	}
	rep.Promote()
	if s.readOnly.Load() {
		t.Fatal("Promote left the gate down")
	}
}
