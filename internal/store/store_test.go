package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// testModel generates one small decorated model; the shared vocabulary
// gives queries realistic cross-model overlap.
func testModel(i int) *sbml.Model {
	return biomodels.Generate(biomodels.Config{
		ID:             fmt.Sprintf("m%03d", i),
		Nodes:          6 + i%5,
		Edges:          8 + i%7,
		Seed:           int64(7000 + 13*i),
		VocabularySize: 60,
		Decorate:       true,
	})
}

func testOptions() Options {
	return Options{
		Corpus: corpus.Options{Shards: 3, Match: core.Options{Synonyms: synonym.Builtin()}},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustAdd(t *testing.T, c *corpus.Corpus, m *sbml.Model) {
	t.Helper()
	if _, err := c.Add(m); err != nil {
		t.Fatalf("Add(%s): %v", m.ID, err)
	}
}

func mustRemove(t *testing.T, c *corpus.Corpus, id string) {
	t.Helper()
	if ok, err := c.Remove(id); err != nil || !ok {
		t.Fatalf("Remove(%s): ok=%v err=%v", id, ok, err)
	}
}

// assertCorporaEquivalent pins the kill-and-reopen acceptance criterion:
// ids, Search rankings with exact scores and evidence, and ComposeWith
// output must be byte-identical between the recovered corpus and the
// never-restarted reference.
func assertCorporaEquivalent(t *testing.T, got, want *corpus.Corpus, queries []*sbml.Model) {
	t.Helper()
	if g, w := got.IDs(), want.IDs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("IDs diverge:\n got %v\nwant %v", g, w)
	}
	for _, q := range queries {
		gh, err := got.Search(q, corpus.SearchOptions{TopK: -1})
		if err != nil {
			t.Fatalf("recovered Search(%s): %v", q.ID, err)
		}
		wh, err := want.Search(q, corpus.SearchOptions{TopK: -1})
		if err != nil {
			t.Fatalf("reference Search(%s): %v", q.ID, err)
		}
		if !reflect.DeepEqual(gh, wh) {
			t.Fatalf("Search(%s) diverges:\n got %+v\nwant %+v", q.ID, gh, wh)
		}
		for _, id := range want.IDs() {
			gr, gerr := got.ComposeWith(id, q)
			wr, werr := want.ComposeWith(id, q)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("ComposeWith(%s, %s) error mismatch: %v vs %v", id, q.ID, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			gx := sbml.WrapModel(gr.Model).String()
			wx := sbml.WrapModel(wr.Model).String()
			if gx != wx {
				t.Fatalf("ComposeWith(%s, %s) output diverges", id, q.ID)
			}
		}
	}
}

// buildReference replays the same workload into a plain in-memory corpus.
func buildReference(t *testing.T, opts corpus.Options, adds []*sbml.Model, removes []string) *corpus.Corpus {
	t.Helper()
	c := corpus.New(opts)
	for _, m := range adds {
		mustAdd(t, c, m)
	}
	for _, id := range removes {
		mustRemove(t, c, id)
	}
	return c
}

func TestReopenFromWALTail(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true // leave the raw WAL: recovery is pure replay
	opts.Fsync = FsyncNever

	var adds []*sbml.Model
	s := mustOpen(t, dir, opts)
	for i := 0; i < 10; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	removes := []string{adds[3].ID, adds[7].ID}
	for _, id := range removes {
		mustRemove(t, s.Corpus(), id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("NoSnapshotOnClose still wrote a snapshot: %v", err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	st := s2.Stats()
	if st.WALRecords != 12 || st.WALAdds != 10 || st.WALRemoves != 2 || st.SnapshotModels != 0 {
		t.Fatalf("recovery stats = %+v, want 12 records / 10 adds / 2 removes, no snapshot", st)
	}
	if st.TornTail || st.DroppedBytes != 0 {
		t.Fatalf("clean WAL reported torn tail: %+v", st)
	}
	ref := buildReference(t, testOptions().Corpus, adds, removes)
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{adds[0], adds[5], testModel(40)})
}

func TestReopenFromSnapshotThenTail(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	opts.Fsync = FsyncNever

	var adds []*sbml.Model
	s := mustOpen(t, dir, opts)
	for i := 0; i < 6; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	// Manual compaction: snapshot covers the first six adds...
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// ...then a tail accumulates on top of it.
	for i := 6; i < 10; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	removes := []string{adds[1].ID, adds[8].ID}
	for _, id := range removes {
		mustRemove(t, s.Corpus(), id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	st := s2.Stats()
	if st.SnapshotModels != 6 {
		t.Fatalf("snapshot models = %d, want 6 (stats %+v)", st.SnapshotModels, st)
	}
	if st.WALAdds != 4 || st.WALRemoves != 2 {
		t.Fatalf("tail replay = %+v, want 4 adds / 2 removes", st)
	}
	ref := buildReference(t, testOptions().Corpus, adds, removes)
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{adds[2], adds[9], testModel(41)})
}

func TestCloseSnapshotMakesReopenSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	var adds []*sbml.Model
	s := mustOpen(t, dir, testOptions())
	for i := 0; i < 8; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	st := s2.Stats()
	if st.SnapshotModels != 8 || st.WALAdds != 0 || st.WALRemoves != 0 || st.WALSkipped != 0 {
		t.Fatalf("after graceful close, recovery should be snapshot-only: %+v", st)
	}
	ref := buildReference(t, testOptions().Corpus, adds, nil)
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{adds[4], testModel(42)})
}

func TestAutoCompactionTriggersAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.CompactBytes = 2 << 10 // a couple of model blobs
	opts.NoSnapshotOnClose = true

	var adds []*sbml.Model
	s := mustOpen(t, dir, opts)
	for i := 0; i < 12; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	// The background compactor runs asynchronously; wait for at least one
	// snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Status().Snapshots == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Status().Snapshots == 0 {
		t.Fatal("auto-compaction never fired")
	}
	if msg := s.Status().CompactError; msg != "" {
		t.Fatalf("compaction error: %s", msg)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOptions())
	defer s2.Close()
	st := s2.Stats()
	if st.SnapshotModels == 0 {
		t.Fatalf("compaction left no snapshot: %+v", st)
	}
	ref := buildReference(t, testOptions().Corpus, adds, nil)
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{adds[0], adds[11]})
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions()
			opts.Fsync = policy
			opts.FsyncEvery = 5 * time.Millisecond
			s := mustOpen(t, dir, opts)
			mustAdd(t, s.Corpus(), testModel(0))
			if policy == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the ticker fire at least once
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := mustOpen(t, dir, opts)
			defer s2.Close()
			if got := s2.Corpus().Len(); got != 1 {
				t.Fatalf("recovered %d models, want 1", got)
			}
		})
	}
	if _, err := Open(t.TempDir(), Options{Fsync: "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
	// The retired group policy is refused with a pointer to always, which
	// now group-commits, rather than silently aliased.
	if _, err := Open(t.TempDir(), Options{Fsync: "group"}); err == nil || !strings.Contains(err.Error(), `"always" now group-commits`) {
		t.Fatalf("retired fsync policy group: err = %v, want a refusal naming always", err)
	}
}

func TestMutationsFailAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustAdd(t, s.Corpus(), testModel(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	c := s.Corpus()
	if _, err := c.Add(testModel(1)); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("Add after Close: err = %v, want ErrPersist", err)
	}
	if _, err := c.Remove(testModel(0).ID); !errors.Is(err, corpus.ErrPersist) {
		t.Fatalf("Remove after Close: err = %v, want ErrPersist", err)
	}
	// The failed mutations left the in-memory state untouched.
	if got := c.Len(); got != 1 {
		t.Fatalf("corpus len after failed mutations = %d, want 1", got)
	}
	if err := s.Snapshot(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Snapshot after Close: %v", err)
	}
}

func TestCorruptSnapshotRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	mustAdd(t, s.Corpus(), testModel(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	for name, corrupt := range map[string]func([]byte) []byte{
		"bad-magic": func(b []byte) []byte { b[0] ^= 0xFF; return b },
		// Offset 44 is inside the first entry's core section (canonical
		// bytes): magic 8 + header 24 + entryLen 4 + coreLen 4 + coreCRC 4.
		// Damage there is unrecoverable — unlike the keys section, whose
		// corruption only downgrades the entry to the parse path (pinned in
		// codec_test.go).
		"core-flip":  func(b []byte) []byte { b[44] ^= 0x01; return b },
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"header-own": func(b []byte) []byte { return b[:4] },
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dir2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir2, snapName), corrupt(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir2, testOptions())
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("Open with %s snapshot: err = %v, want ErrCorruptSnapshot", name, err)
			}
		})
	}
}

func TestBadWALMagicRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentName(dir, 1), []byte("notawal!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Open with bad WAL magic: %v", err)
	}
}

func TestUnwritableDirRefusesToOpen(t *testing.T) {
	// A path whose parent is a regular file is unwritable for any uid
	// (root included), unlike permission bits.
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "data"), testOptions()); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

func TestStatusReportsProgress(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	s := mustOpen(t, dir, opts)
	defer s.Close()
	if st := s.Status(); st.TailBytes != 0 || st.LastSeq != 0 || st.Dir != dir {
		t.Fatalf("fresh status = %+v", st)
	}
	mustAdd(t, s.Corpus(), testModel(0))
	st := s.Status()
	if st.TailBytes == 0 || st.LastSeq != 1 {
		t.Fatalf("status after one add = %+v", st)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st = s.Status()
	if st.TailBytes != 0 || st.Snapshots != 1 {
		t.Fatalf("status after snapshot = %+v", st)
	}
}

// TestCanonicalBytesStableAcrossGenerations pins the serialization
// fixed-point the whole design rests on: the snapshot a recovered store
// writes must be byte-identical to the snapshot the original store
// writes, or recovered corpora would drift generation over generation.
func TestCanonicalBytesStableAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	s := mustOpen(t, dir, opts)
	for i := 0; i < 6; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	if err := s.Close(); err != nil { // writes snapshot gen 1
		t.Fatal(err)
	}
	gen1, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	if err := s2.Close(); err != nil { // re-serializes every recovered model
		t.Fatal(err)
	}
	gen2, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gen1, gen2) {
		t.Fatal("snapshot bytes drift across a recover/re-snapshot generation")
	}
}

// TestReplayRejectsInconsistentLog pins that CRC-valid but semantically
// impossible logs (remove of a model that was never added) fail Open
// loudly instead of guessing, naming the record that failed.
func TestReplayRejectsInconsistentLog(t *testing.T) {
	dir := t.TempDir()
	w, err := createSegment(segmentName(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendFrames(appendFrame(nil, walRecord{op: opRemove, seq: 1, id: "ghost"})); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), "absent model") || !strings.Contains(err.Error(), "seq 1") {
		t.Fatalf("Open with remove-of-absent: %v, want an error naming seq 1", err)
	}
}
