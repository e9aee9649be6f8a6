package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/sbml"
)

// Tests for FsyncAlways's group commit: batched acknowledgement must
// keep the guarantee (an acked write survives, a failed write vanishes)
// under concurrency, rotation and shutdown.

// TestGroupCommitConcurrentWriters hammers the group path from many
// goroutines and verifies every acknowledged add survives a reopen.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true // reopen must replay the group-committed WAL
	s := mustOpen(t, dir, opts)
	const writers, perWriter = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Corpus().Add(testModel(w*perWriter + i)); err != nil {
					errs <- fmt.Errorf("writer %d add %d: %w", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, opts)
	if got := s2.Corpus().Len(); got != writers*perWriter {
		t.Fatalf("recovered %d models, want %d", got, writers*perWriter)
	}
	var adds []*sbml.Model
	for i := 0; i < writers*perWriter; i++ {
		adds = append(adds, testModel(i))
	}
	assertCorporaEquivalent(t, s2.Corpus(), buildReference(t, opts.Corpus, adds, nil),
		[]*sbml.Model{testModel(3)})
	s2.Close()
}

// TestGroupCommitFsyncFailure injects a batch-fsync failure: the add
// must fail, the corpus must not contain the model, and — the deferred
// durability property — the record must be gone from the log, so a
// crash-and-reopen cannot resurrect a write its caller saw fail.
func TestGroupCommitFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	mustAdd(t, s.Corpus(), testModel(0))

	boom := errors.New("injected group fsync failure")
	s.mu.Lock()
	calls := 0
	s.wal.syncHook = func(f *os.File) error {
		calls++
		if calls == 1 {
			return boom // the batch fsync; the rollback sync goes through
		}
		return f.Sync()
	}
	s.mu.Unlock()

	if _, err := s.Corpus().Add(testModel(1)); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("add under failing fsync: err = %v, want ErrPersist", err)
	}
	if got := s.Corpus().Len(); got != 1 {
		t.Fatalf("corpus len after failed group commit = %d, want 1", got)
	}
	// The writer rolled back and stays usable: the next add goes through
	// and both survive recovery; the failed record must not reappear.
	mustAdd(t, s.Corpus(), testModel(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	ids := s2.Corpus().IDs()
	want := []string{testModel(0).ID, testModel(2).ID}
	if len(ids) != 2 || ids[0] != want[0] || ids[1] != want[1] {
		t.Fatalf("recovered ids %v, want %v", ids, want)
	}
	s2.Close()
}

// TestGroupCommitFsyncFailureSurrendersSeqs: a follower batch whose
// group commit fails must give its explicit seqs back, or the apply loop's
// retry of the same chunk is refused forever as "not beyond store seq".
func TestGroupCommitFsyncFailureSurrendersSeqs(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	s.mu.Lock()
	calls := 0
	s.wal.syncHook = func(f *os.File) error {
		calls++
		if calls == 1 {
			return errors.New("injected group fsync failure")
		}
		return f.Sync()
	}
	s.mu.Unlock()
	batch := func() []BatchRecord {
		var recs []BatchRecord
		for i := 0; i < 3; i++ {
			m := testModel(i)
			recs = append(recs, BatchRecord{Seq: uint64(i + 1), ID: m.ID, SBML: []byte(sbml.WrapModel(m).String())})
		}
		return recs
	}
	if err := s.AppendBatch(batch()); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("batch under failing fsync: err = %v, want ErrPersist", err)
	}
	if got := s.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after rolled-back batch = %d, want 0", got)
	}
	if err := s.AppendBatch(batch()); err != nil {
		t.Fatalf("retry of the rolled-back batch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if got := s2.Corpus().Len(); got != 3 || s2.LastSeq() != 3 {
		t.Fatalf("recovered %d models at seq %d, want 3 at 3", got, s2.LastSeq())
	}
}

// TestGroupCommitFsyncAndRollbackFailure fails both the batch fsync and
// the rollback's confirming sync: the writer must wedge and every later
// append must fail fast rather than acknowledge records behind an
// unconfirmed tail.
func TestGroupCommitFsyncAndRollbackFailure(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	boom := errors.New("injected persistent sync failure")
	s.mu.Lock()
	s.wal.syncHook = func(*os.File) error { return boom }
	s.mu.Unlock()

	if _, err := s.Corpus().Add(testModel(0)); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("add under failing fsync: err = %v, want ErrPersist", err)
	}
	if _, err := s.Corpus().Add(testModel(1)); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("add after wedge: err = %v, want ErrPersist", err)
	}
	s.mu.Lock()
	wedged := s.wal.wedged
	s.wal.syncHook = nil // let Close's flush proceed against the real file
	s.mu.Unlock()
	if wedged == nil {
		t.Fatal("writer not wedged after rollback sync failure")
	}
}

// TestGroupCommitAcrossRotation runs concurrent group-mode adds while
// snapshots rotate the segment under them; every acknowledged add must
// survive, whichever side of a rotation its record landed on.
func TestGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	s := mustOpen(t, dir, opts)
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.Snapshot(); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				if _, err := s.Corpus().Add(testModel(w*(n/4) + i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	if got := s2.Corpus().Len(); got != n {
		t.Fatalf("recovered %d models, want %d", got, n)
	}
	s2.Close()
}

// TestRotationResolvesPendingWaiter makes the rotation-with-a-waiter
// interleaving deterministic. The first group commit is held inside its
// sync while a second append writes its record and enqueues its waiter;
// the test takes that append's kick, so the group loop never sees it.
// Only rotation can then acknowledge the second append, and it must do
// so against the segment holding its record, which a reopen replays.
func TestRotationResolvesPendingWaiter(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactBytes = -1
	opts.NoSnapshotOnClose = true // the reopen must replay the old segment
	s := mustOpen(t, dir, opts)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	s.mu.Lock()
	oldGen := s.gen
	s.wal.syncHook = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	}
	s.mu.Unlock()
	add := func(i int) chan error {
		errc := make(chan error, 1)
		go func() { _, err := s.Corpus().Add(testModel(i)); errc <- err }()
		return errc
	}
	wait := func(errc chan error, what string) {
		t.Helper()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s was never acknowledged", what)
		}
	}
	first := add(0)
	<-entered // the group loop holds groupMu inside the first commit's sync
	second := add(1)
	// An append kicks the loop after enqueueing its waiter, and the loop is
	// busy, so taking the kick here both waits for the enqueue and keeps
	// the loop from ever committing the second append.
	select {
	case <-s.groupCh:
	case <-time.After(30 * time.Second):
		t.Fatal("the second append never kicked the group loop")
	}
	s.mu.Lock()
	pending := len(s.groupWaiters)
	s.mu.Unlock()
	if pending != 1 {
		t.Fatalf("%d waiters pending behind the held commit, want 1", pending)
	}
	close(release)
	wait(first, "first append")
	select {
	case err := <-second:
		t.Fatalf("second append returned (%v) before any sync covered it", err)
	default:
	}
	if _, err := s.rotate(nil); err != nil {
		t.Fatal(err)
	}
	wait(second, "second append")
	rep, err := readSegment(segmentName(dir, oldGen))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.records); n != 2 || rep.records[1].id != testModel(1).ID {
		t.Fatalf("old segment holds %d records, want both adds", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if !s2.Corpus().Has(testModel(1).ID) || s2.Corpus().Len() != 2 {
		t.Fatalf("reopen recovered %v, want both adds", s2.Corpus().IDs())
	}
}

// TestGroupCommitCloseRace races Close against group-mode writers: each
// add either succeeds (and must be recovered) or fails with a persist
// error; nothing may hang on a waiter the final drain missed.
func TestGroupCommitCloseRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		opts := testOptions()
		opts.NoSnapshotOnClose = true
		s := mustOpen(t, dir, opts)
		var wg sync.WaitGroup
		acked := make([]bool, 8)
		for w := range acked {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, err := s.Corpus().Add(testModel(w))
				if err == nil {
					acked[w] = true
				} else if !errors.Is(err, corpus.ErrPersist) {
					t.Errorf("round %d writer %d: unexpected error %v", round, w, err)
				}
			}(w)
		}
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		wg.Wait()
		s2 := mustOpen(t, dir, opts)
		for w, ok := range acked {
			if !ok {
				continue
			}
			if _, found := s2.Corpus().Get(testModel(w).ID); !found {
				t.Fatalf("round %d: acknowledged add %d lost after Close", round, w)
			}
		}
		s2.Close()
	}
}

// TestAppendBatchSingleSync pins the replication apply path's fsync
// economics: one AppendBatch of N records — the follower persisting a
// whole received chunk — must ride one group commit, reaching stable
// storage with exactly one sync, and every record must survive a crash
// reopen.
func TestAppendBatchSingleSync(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true // reopen must replay the batched WAL
	s := mustOpen(t, dir, opts)

	const n = 10
	var syncs int
	s.mu.Lock()
	s.wal.syncHook = func(f *os.File) error {
		syncs++
		return f.Sync()
	}
	s.mu.Unlock()

	var recs []BatchRecord
	for i := 0; i < n; i++ {
		m := testModel(i)
		recs = append(recs, BatchRecord{
			Seq:  uint64(i + 1),
			ID:   m.ID,
			SBML: []byte(sbml.WrapModel(m).String()),
		})
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if syncs != 1 {
		t.Fatalf("AppendBatch of %d records issued %d syncs, want exactly 1", n, syncs)
	}
	if s.LastSeq() != n {
		t.Fatalf("LastSeq = %d after batch, want %d", s.LastSeq(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if got := s2.Corpus().Len(); got != n {
		t.Fatalf("recovered %d models from batched WAL, want %d", got, n)
	}
	if s2.LastSeq() != n {
		t.Fatalf("recovered LastSeq = %d, want %d", s2.LastSeq(), n)
	}
}

// TestAppendBatchGroupPolicySingleSync: a batch under the default
// group-committing policy is one commit — one sync, and one
// GroupBatchRecords observation counting every record in it.
func TestAppendBatchGroupPolicySingleSync(t *testing.T) {
	hist, err := obs.NewHistogram([]float64{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Metrics = &Metrics{GroupBatchRecords: hist}
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	var syncs int
	s.mu.Lock()
	s.wal.syncHook = func(f *os.File) error {
		syncs++
		return f.Sync()
	}
	s.mu.Unlock()

	var recs []BatchRecord
	for i := 0; i < 6; i++ {
		m := testModel(i)
		recs = append(recs, BatchRecord{
			Seq:  uint64(i + 1),
			ID:   m.ID,
			SBML: []byte(sbml.WrapModel(m).String()),
		})
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if syncs != 1 {
		t.Fatalf("group-commit AppendBatch issued %d syncs, want 1", syncs)
	}
	if hist.Count() != 1 || hist.Sum() != 6 {
		t.Fatalf("GroupBatchRecords saw %d commits totalling %v records, want 1 of 6",
			hist.Count(), hist.Sum())
	}
}

// TestAppendBatchRejectsBadSeqs: explicit seqs must move strictly
// forward; a regressing batch is refused whole and the log is unchanged.
func TestAppendBatchRejectsBadSeqs(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	mustAdd(t, s.Corpus(), testModel(0))
	before := s.LastSeq()

	m := testModel(1)
	bad := []BatchRecord{{Seq: before, ID: m.ID, SBML: []byte(sbml.WrapModel(m).String())}}
	if err := s.AppendBatch(bad); err == nil {
		t.Fatal("AppendBatch accepted a non-advancing seq")
	}
	if s.LastSeq() != before {
		t.Fatalf("failed batch moved LastSeq from %d to %d", before, s.LastSeq())
	}
	if err := s.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}
