package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// This file is the crash-recovery property harness of the issue: build a
// randomized add/remove workload through a real store, then simulate a
// crash at EVERY byte offset inside the final WAL record (and flip bytes
// for the CRC path) and assert the recovered corpus equals the corpus of
// the prefix workload — ids, full Search rankings with exact scores, and
// never anything mis-applied.

// crashModel is deliberately minimal — each byte of its serialized form
// becomes one truncation point, i.e. one full recovery, in the sweep.
func crashModel(i int) *sbml.Model {
	return biomodels.Generate(biomodels.Config{
		ID:             fmt.Sprintf("c%02d", i),
		Nodes:          3,
		Edges:          4,
		Seed:           int64(300 + 7*i),
		VocabularySize: 20,
		Decorate:       true,
	})
}

// crashWorkload is one recorded mutation.
type crashWorkload struct {
	remove bool
	m      *sbml.Model // add payload
	id     string      // remove target
}

// buildCrashDir runs the workload through a store (fsync off — the files
// are read back immediately) and returns the WAL bytes plus the byte
// offset where each record's frame starts, aligned with the workload
// slice (offsets[i] is where workload i's record begins).
func buildCrashDir(t *testing.T, workload []crashWorkload) (walBytes []byte, offsets []int64) {
	t.Helper()
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.NoSnapshotOnClose = true
	opts.CompactBytes = -1 // the harness needs every record to stay in the tail
	s := mustOpen(t, dir, opts)
	segPath := segmentName(dir, 1)
	for _, step := range workload {
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, fi.Size())
		if step.remove {
			mustRemove(t, s.Corpus(), step.id)
		} else {
			mustAdd(t, s.Corpus(), step.m)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	return walBytes, offsets
}

// prefixCorpus replays workload[:n] into a plain in-memory corpus.
func prefixCorpus(t *testing.T, workload []crashWorkload, n int) *corpus.Corpus {
	t.Helper()
	c := corpus.New(testOptions().Corpus)
	for _, step := range workload[:n] {
		if step.remove {
			mustRemove(t, c, step.id)
		} else {
			mustAdd(t, c, step.m)
		}
	}
	return c
}

// openTruncated writes the given WAL bytes into a fresh directory and
// opens a store on it, returning the recovered store.
func openTruncated(t *testing.T, walBytes []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(segmentName(dir, 1), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.NoSnapshotOnClose = true
	return mustOpen(t, dir, opts)
}

// expectedState is a corpus's precomputed observable state: sorted ids
// and the full Search ranking (exact scores, evidence, order) for the
// probe query. Precomputing it once per prefix keeps the per-truncation
// cost to one recovery plus one search.
type expectedState struct {
	ids  []string
	hits []corpus.Hit
}

func stateOf(t *testing.T, c *corpus.Corpus, query *sbml.Model) expectedState {
	t.Helper()
	hits, err := c.Search(query, corpus.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	return expectedState{ids: c.IDs(), hits: hits}
}

// assertRecoveredEqualsPrefix checks ids and full Search rankings against
// the prefix corpus's precomputed state.
func assertRecoveredEqualsPrefix(t *testing.T, s *Store, want expectedState, query *sbml.Model, ctx string) {
	t.Helper()
	if g := s.Corpus().IDs(); !reflect.DeepEqual(g, want.ids) {
		t.Fatalf("%s: recovered IDs %v, want %v", ctx, g, want.ids)
	}
	gh, err := s.Corpus().Search(query, corpus.SearchOptions{TopK: -1})
	if err != nil {
		t.Fatalf("%s: recovered Search: %v", ctx, err)
	}
	if !reflect.DeepEqual(gh, want.hits) {
		t.Fatalf("%s: Search diverges:\n got %+v\nwant %+v", ctx, gh, want.hits)
	}
}

// makeWorkload builds a seeded random interleaving of adds and removes
// (removes always target a currently-present model), ending with the
// given final operation kind.
func makeWorkload(t testing.TB, seed int64, steps int, endWithRemove bool) []crashWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var w []crashWorkload
	var present []string
	next := 0
	add := func() {
		// Tiny models keep the final-record byte sweep tractable: every
		// truncation offset costs one full recovery.
		m := crashModel(next)
		next++
		w = append(w, crashWorkload{m: m})
		present = append(present, m.ID)
	}
	remove := func() {
		i := rng.Intn(len(present))
		w = append(w, crashWorkload{remove: true, id: present[i]})
		present = append(present[:i], present[i+1:]...)
	}
	for len(w) < steps-1 {
		if len(present) > 1 && rng.Float64() < 0.3 {
			remove()
		} else {
			add()
		}
	}
	if endWithRemove {
		remove()
	} else {
		add()
	}
	return w
}

// runCrashSweep truncates the WAL at every byte offset within the final
// record and asserts prefix equality after every recovery; it then flips
// every byte of the final record's frame one at a time (CRC path) and
// asserts the record is dropped, never mis-applied.
func runCrashSweep(t *testing.T, workload []crashWorkload) {
	walBytes, offsets := buildCrashDir(t, workload)
	last := len(workload) - 1
	start, end := offsets[last], int64(len(walBytes))
	if end <= start {
		t.Fatalf("final record is empty: offsets %v, wal %d bytes", offsets, end)
	}
	query := crashModel(0) // probe query; it need not itself be stored
	prefix := stateOf(t, prefixCorpus(t, workload, last), query)
	full := stateOf(t, prefixCorpus(t, workload, len(workload)), query)

	// Sanity: the untouched WAL recovers the full workload.
	s := openTruncated(t, walBytes)
	assertRecoveredEqualsPrefix(t, s, full, query, "untruncated")
	if st := s.Stats(); st.TornTail {
		t.Fatalf("clean WAL reported torn tail: %+v", st)
	}
	s.Close()

	// Torn-tail sweep: every truncation point inside the final record
	// (sampled under -short; CI runs the full sweep).
	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	for cut := start; cut < end; cut += stride {
		s := openTruncated(t, walBytes[:cut])
		st := s.Stats()
		if cut == start {
			// Truncation exactly at the frame boundary is a clean log of
			// the prefix, not a torn tail.
			if st.TornTail || st.DroppedBytes != 0 {
				t.Fatalf("cut@%d: boundary truncation reported torn tail: %+v", cut, st)
			}
		} else if !st.TornTail || st.DroppedBytes != cut-start {
			t.Fatalf("cut@%d: stats %+v, want torn tail with %d dropped bytes", cut, st, cut-start)
		}
		if st.WALRecords != last {
			t.Fatalf("cut@%d: replayed %d records, want %d", cut, st.WALRecords, last)
		}
		assertRecoveredEqualsPrefix(t, s, prefix, query, "cut@"+itoa(cut))
		// The recovered store's WAL was repaired: appending must work and
		// the result must recover again (the log stayed well-formed).
		// Sampled — it compiles a fresh model per check.
		if (cut-start)%16 == 0 {
			extra := crashModel(97)
			mustAdd(t, s.Corpus(), extra)
			if ok, err := s.Corpus().Remove(extra.ID); err != nil || !ok {
				t.Fatalf("cut@%d: append after repair: ok=%v err=%v", cut, ok, err)
			}
		}
		s.Close()
	}

	// Corruption sweep (the CRC path): flip single bytes of the final
	// record — all eight frame-header bytes (length and CRC fields),
	// plus the payload sampled densely and its first and last byte. The
	// record must be dropped — recovery equals the prefix — never
	// mis-applied, whether the flip breaks the length bound or the
	// checksum.
	flips := []int64{end - 1}
	for pos := start; pos < start+walFrameLen && pos < end; pos++ {
		flips = append(flips, pos)
	}
	for pos := start + walFrameLen; pos < end-1; pos += 23 {
		flips = append(flips, pos)
	}
	for _, pos := range flips {
		mut := append([]byte(nil), walBytes...)
		mut[pos] ^= 0x5A
		s := openTruncated(t, mut)
		st := s.Stats()
		if !st.TornTail {
			t.Fatalf("flip@%d: corruption not detected: %+v", pos, st)
		}
		assertRecoveredEqualsPrefix(t, s, prefix, query, "flip@"+itoa(pos))
		s.Close()
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func TestCrashRecoveryFinalAddRecord(t *testing.T) {
	// Ends with an add: the final record carries a full SBML blob, so the
	// sweep covers truncation inside frame header, ids and model bytes.
	runCrashSweep(t, makeWorkload(t, 1, 8, false))
}

func TestCrashRecoveryFinalRemoveRecord(t *testing.T) {
	// Ends with a remove: a short record whose loss must resurrect the
	// removed model exactly as the prefix corpus has it.
	runCrashSweep(t, makeWorkload(t, 2, 9, true))
}

// TestFsyncFailureRollsBackRecord injects an fsync error into the
// FsyncAlways group commit: the add must fail, and — because the rollback
// truncation is itself synced — the record must be durably gone, so a
// crash-and-reopen recovers exactly the prefix and never resurrects a
// write its caller was told failed.
func TestFsyncFailureRollsBackRecord(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions() // FsyncAlways default
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	mustAdd(t, s.Corpus(), crashModel(0))

	injected := fmt.Errorf("injected append fsync failure")
	s.mu.Lock()
	calls := 0
	s.wal.syncHook = func(f *os.File) error {
		calls++
		if calls == 1 {
			return injected // the commit's sync; the rollback sync succeeds
		}
		return f.Sync()
	}
	s.mu.Unlock()

	if _, err := s.Corpus().Add(crashModel(1)); err == nil {
		t.Fatal("add under failing fsync succeeded")
	}
	if calls < 2 {
		t.Fatalf("rollback did not sync its truncation (%d sync calls)", calls)
	}
	if got := s.Corpus().Len(); got != 1 {
		t.Fatalf("corpus len after failed add = %d, want 1", got)
	}
	// The writer repaired itself: later appends work and recovery sees
	// the prefix plus the later add, never the failed record.
	mustAdd(t, s.Corpus(), crashModel(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	want := []string{crashModel(0).ID, crashModel(2).ID}
	if got := s2.Corpus().IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ids %v, want %v", got, want)
	}
	if st := s2.Stats(); st.TornTail {
		t.Fatalf("rolled-back log reported torn tail: %+v", st)
	}
	s2.Close()
}

// TestFsyncFailureWithFailedRollbackWedges fails both the commit fsync
// and the rollback's confirming sync: the writer must wedge, and every
// later append must fail fast — acknowledging records behind an
// unconfirmed tail would lose them all at the next torn-tail repair.
func TestFsyncFailureWithFailedRollbackWedges(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustAdd(t, s.Corpus(), crashModel(0))
	injected := fmt.Errorf("injected persistent sync failure")
	s.mu.Lock()
	s.wal.syncHook = func(*os.File) error { return injected }
	s.mu.Unlock()

	if _, err := s.Corpus().Add(crashModel(1)); err == nil {
		t.Fatal("add under failing fsync succeeded")
	}
	_, err := s.Corpus().Add(crashModel(2))
	if err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("add after failed rollback: err = %v, want wedged fast-fail", err)
	}
	if got := s.Corpus().Len(); got != 1 {
		t.Fatalf("corpus len after wedge = %d, want 1", got)
	}
	s.mu.Lock()
	s.wal.syncHook = nil
	s.mu.Unlock()
}

func TestCrashRecoveryTornSnapshotTempIgnored(t *testing.T) {
	// A crash during snapshot write leaves a corpus.snap.tmp* file; Open
	// must ignore it and recover from the WAL (plus any previous
	// snapshot), and the next snapshot must still succeed.
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	var adds []*sbml.Model
	for i := 0; i < 5; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName+".tmp123"), []byte("partial snapshot garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	if got := s2.Corpus().Len(); got != 5 {
		t.Fatalf("recovered %d models, want 5", got)
	}
	if err := s2.Snapshot(); err != nil {
		t.Fatalf("snapshot after torn temp file: %v", err)
	}
	s2.Close()
}
