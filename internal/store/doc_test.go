package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
)

// Tests for the store's locator Docs (doc.go): store-backed entries hold
// no SBML, compaction re-points them before deleting the files they read,
// and bytes that rot on disk after Open are caught by the CRC at read
// time instead of being parsed.

var simOpts = sim.Options{T1: 2, Step: 0.5}

// assertAllLocators fails unless every entry of c reads its SBML through
// a store locator.
func assertAllLocators(t *testing.T, c *corpus.Corpus, ctx string) {
	t.Helper()
	blobs, err := c.DumpConsistent(context.Background(), nil)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if len(blobs) == 0 {
		t.Fatalf("%s: empty corpus", ctx)
	}
	for _, b := range blobs {
		if _, ok := b.Doc.(*fileDoc); !ok {
			t.Fatalf("%s: entry %q holds a %T, not a store locator", ctx, b.ID, b.Doc)
		}
	}
}

// assertModelsMatch checks that every model of ref reads back from got
// byte-identically, composes identically, and simulates identically.
func assertModelsMatch(t *testing.T, got, ref *corpus.Corpus, ctx string) {
	t.Helper()
	if g, w := got.IDs(), ref.IDs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ids %v, want %v", ctx, g, w)
	}
	query := testModel(90)
	for _, id := range ref.IDs() {
		gm, ok := got.Get(id)
		if !ok {
			t.Fatalf("%s: Get(%s) reports absent", ctx, id)
		}
		wm, _ := ref.Get(id)
		if g, w := sbml.WrapModel(gm).String(), sbml.WrapModel(wm).String(); g != w {
			t.Fatalf("%s: Get(%s) differs from the model added", ctx, id)
		}
		gr, err := got.ComposeWith(context.Background(), id, query)
		if err != nil {
			t.Fatalf("%s: ComposeWith(%s): %v", ctx, id, err)
		}
		wr, _ := ref.ComposeWith(context.Background(), id, query)
		if sbml.WrapModel(gr.Model).String() != sbml.WrapModel(wr.Model).String() {
			t.Fatalf("%s: ComposeWith(%s) diverges", ctx, id)
		}
		gt, err := got.SimulateODE(id, simOpts)
		if err != nil {
			t.Fatalf("%s: SimulateODE(%s): %v", ctx, id, err)
		}
		wt, _ := ref.SimulateODE(id, simOpts)
		if !reflect.DeepEqual(gt, wt) {
			t.Fatalf("%s: SimulateODE(%s) diverges", ctx, id)
		}
	}
}

// openDeletedFiles lists this process's open descriptors on files in dir
// that have been deleted, after collecting garbage until there are none
// or a second passes. It reports ok=false where /proc is absent.
func openDeletedFiles(t *testing.T, dir string) (files []string, ok bool) {
	t.Helper()
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		return nil, false
	}
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); ; {
		runtime.GC()
		files = files[:0]
		fds, _ := os.ReadDir("/proc/self/fd")
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && strings.HasPrefix(target, real+string(filepath.Separator)) && strings.HasSuffix(target, " (deleted)") {
				files = append(files, target)
			}
		}
		if len(files) == 0 || time.Now().After(deadline) {
			return files, true
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertNoDeletedFilesOpen(t *testing.T, dir, ctx string) {
	t.Helper()
	files, ok := openDeletedFiles(t, dir)
	if !ok {
		t.Logf("%s: no /proc/self/fd; open-file check skipped", ctx)
		return
	}
	if len(files) > 0 {
		t.Fatalf("%s: deleted store files still open: %v", ctx, files)
	}
}

// TestStoreEntriesCarryLocators: every way a model enters a store-backed
// corpus — recovery from a snapshot and a WAL tail, a persisted Add, a
// persisted ApplyBatch, a snapshot-image resync — leaves an entry that
// reads its SBML through a locator rather than holding it.
func TestStoreEntriesCarryLocators(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	for i := 0; i < 4; i++ {
		mustAdd(t, s.Corpus(), testModel(i))
	}
	assertAllLocators(t, s.Corpus(), "after Add")
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	assertAllLocators(t, s.Corpus(), "after compaction")
	mustAdd(t, s.Corpus(), testModel(4))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opts)
	defer s.Close()
	if st := s.Stats(); st.SnapshotModels != 4 || st.WALAdds != 1 {
		t.Fatalf("recovery stats %+v, want 4 snapshot models and 1 WAL add", st)
	}
	assertAllLocators(t, s.Corpus(), "after Open")
	var ops []corpus.BatchOp
	for i := 5; i < 7; i++ {
		m := testModel(i)
		keys, err := parseKeys(m.ID, []byte(sbml.WrapModel(m).String()), opts.Corpus.Match)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, corpus.BatchOp{ID: m.ID, Doc: corpus.Bytes(sbml.WrapModel(m).String()), Keys: keys})
	}
	if err := s.Corpus().ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	assertAllLocators(t, s.Corpus(), "after ApplyBatch")

	image, _, err := s.SnapshotImage(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	follower := mustOpen(t, t.TempDir(), opts)
	defer follower.Close()
	if err := follower.ApplySnapshotImage(image); err != nil {
		t.Fatal(err)
	}
	assertAllLocators(t, follower.Corpus(), "after ApplySnapshotImage")
}

// TestRelocationFreesOldFiles: two compactions in a row rotate and delete
// every segment and replace the snapshot. Every model must still read,
// compose and simulate as added, and once the collector has run no
// deleted store file may stay open. The same holds on a follower whose
// whole state a snapshot image replaced.
func TestRelocationFreesOldFiles(t *testing.T) {
	const n = 12
	var adds []*sbml.Model
	for i := 0; i < n; i++ {
		adds = append(adds, testModel(i))
	}
	ref := buildReference(t, testOptions().Corpus, adds, nil)

	// Half the models come back from a snapshot and compile lazily
	// through their locators; the other half are added live.
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	for _, m := range adds[:n/2] {
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, testOptions())
	defer s.Close()
	for _, m := range adds[n/2:] {
		mustAdd(t, s.Corpus(), m)
	}
	for i := 0; i < 2; i++ {
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := segmentPaths(dir); len(segs) != 1 {
		t.Fatalf("%d segments after compaction, want the live one", len(segs))
	}
	assertAllLocators(t, s.Corpus(), "primary")
	assertModelsMatch(t, s.Corpus(), ref, "primary")
	assertNoDeletedFilesOpen(t, dir, "primary")

	// A follower with history of its own, all of it on disk: a snapshot
	// and a segment. The resync must free both.
	fdir := t.TempDir()
	follower := mustOpen(t, fdir, testOptions())
	mustAdd(t, follower.Corpus(), testModel(50))
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = mustOpen(t, fdir, testOptions())
	defer follower.Close()
	mustAdd(t, follower.Corpus(), testModel(51))
	image, _, err := s.SnapshotImage(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplySnapshotImage(image); err != nil {
		t.Fatal(err)
	}
	assertAllLocators(t, follower.Corpus(), "follower")
	assertModelsMatch(t, follower.Corpus(), ref, "follower")
	assertNoDeletedFilesOpen(t, fdir, "follower")
}

// flipModelID rewrites, in place, one byte of the model id inside the
// canonical SBML that sp locates in path: if those bytes were ever
// parsed, the model would come back under another id.
func flipModelID(t *testing.T, path string, sp span, id string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, sp.n)
	if _, err := f.ReadAt(buf, sp.off); err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(buf, []byte(`id="`+id+`"`))
	if at < 0 {
		t.Fatalf("model id %q not found in its span", id)
	}
	at += len(`id="`)
	if _, err := f.WriteAt([]byte{buf[at] + 1}, sp.off+int64(at)); err != nil {
		t.Fatal(err)
	}
}

// TestDocRotCaughtAtReadTime flips a byte of one model's SBML after Open,
// first in corpus.snap and then in a WAL segment. The model must read as
// absent from Get and fail ComposeWith and SimulateODE with ErrCorruptDoc;
// every other model still reads back byte-identically.
func TestDocRotCaughtAtReadTime(t *testing.T) {
	const n = 10
	var adds []*sbml.Model
	for i := 0; i < n; i++ {
		adds = append(adds, testModel(i))
	}
	ref := buildReference(t, testOptions().Corpus, adds, nil)
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	for i, m := range adds {
		if i == 6 {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, opts)
	defer s.Close()

	image, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := decodeSnapshotV2(image)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readSegment(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file string
		sp   span
		id   string
	}{
		{snapPath(dir), sf.entries[2].core, sf.entries[2].id},
		{segs[len(segs)-1], rep.spans[1], rep.records[1].id},
	}
	// Both victims stay unread until their bytes rot: a model compiled
	// once is never read from disk again.
	victim := map[string]bool{}
	for _, c := range cases {
		victim[c.id] = true
	}
	for _, c := range cases {
		flipModelID(t, c.file, c.sp, c.id)
		ctx := fmt.Sprintf("rot in %s", filepath.Base(c.file))
		if _, ok := s.Corpus().Get(c.id); ok {
			t.Fatalf("%s: Get(%s) returned the rotted model", ctx, c.id)
		}
		if _, err := s.Corpus().ComposeWith(context.Background(), c.id, testModel(90)); !errors.Is(err, ErrCorruptDoc) {
			t.Fatalf("%s: ComposeWith(%s): %v, want ErrCorruptDoc", ctx, c.id, err)
		}
		if _, err := s.Corpus().SimulateODE(c.id, simOpts); !errors.Is(err, ErrCorruptDoc) {
			t.Fatalf("%s: SimulateODE(%s): %v, want ErrCorruptDoc", ctx, c.id, err)
		}
		for _, id := range ref.IDs() {
			if victim[id] {
				continue
			}
			gm, ok := s.Corpus().Get(id)
			if !ok {
				t.Fatalf("%s: intact model %s reports absent", ctx, id)
			}
			wm, _ := ref.Get(id)
			if sbml.WrapModel(gm).String() != sbml.WrapModel(wm).String() {
				t.Fatalf("%s: intact model %s reads back changed", ctx, id)
			}
		}
	}
	// A snapshot never copies rotted bytes: compaction fails and keeps the
	// segments it would have deleted.
	if err := s.Snapshot(); !errors.Is(err, ErrCorruptDoc) {
		t.Fatalf("compaction over rotted models: %v, want ErrCorruptDoc", err)
	}
}
