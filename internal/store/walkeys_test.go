package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// These tests pin keyed WAL records (op 3): recovery and followers
// install them without parsing when the trust rule accepts their keys,
// fall back to the parse path when it does not, and land on exactly the
// corpus a never-restarted store holds either way. They also pin the
// sbwal-v1 → v2 upgrade: v1 segments still replay and ship, and never
// receive a keyed record.

// keyedWorkload logs 8 adds and 2 removes, with no snapshot, into a
// fresh store directory, and returns it with the adds and removed ids.
func keyedWorkload(t *testing.T) (dir string, adds []*sbml.Model, removes []string) {
	t.Helper()
	dir = t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	for i := 0; i < 8; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	removes = []string{adds[2].ID, adds[6].ID}
	for _, id := range removes {
		mustRemove(t, s.Corpus(), id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, adds, removes
}

// copyStoreDir copies every file of a store directory into a new one.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// rewriteAsV1 replaces a single-segment store's WAL with the sbwal-v1
// image an older binary would have written: the same records, with every
// keyed add downgraded to a keyless op-1 add.
func rewriteAsV1(t *testing.T, dir string) {
	t.Helper()
	path := segmentName(dir, 1)
	rep, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.records {
		if rep.records[i].op == opAddKeys {
			rep.records[i] = walRecord{op: opAdd, seq: rep.records[i].seq, id: rep.records[i].id, sbml: rep.records[i].sbml}
		}
	}
	if err := os.WriteFile(path, segmentImage(walMagicV1, rep.records), 0o644); err != nil {
		t.Fatal(err)
	}
}

// walOps counts each op in a segment file.
func walOps(t *testing.T, path string) map[byte]int {
	t.Helper()
	rep, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[byte]int{}
	for _, rec := range rep.records {
		ops[rec.op]++
	}
	return ops
}

func otherSemantics() Options {
	opts := testOptions()
	opts.Corpus.Match = core.Options{Semantics: core.NoSemantics}
	return opts
}

// TestKeyedWALReopenEquivalence reopens one logged history five ways —
// never restarted, keyed, RecoveryParseOnly, under another semantics
// level (fingerprint mismatch), and from a v1 segment of op-1 records —
// and requires identical rankings and exact recovery counters.
func TestKeyedWALReopenEquivalence(t *testing.T) {
	dir, adds, removes := keyedWorkload(t)
	if ops := walOps(t, segmentName(dir, 1)); ops[opAddKeys] != 8 || ops[opAdd] != 0 || ops[opRemove] != 2 {
		t.Fatalf("logged ops %v, want 8 keyed adds and 2 removes", ops)
	}
	ref := buildReference(t, testOptions().Corpus, adds, removes)
	probes := []*sbml.Model{adds[0], adds[5], testModel(40)}

	parseOnly := testOptions()
	parseOnly.RecoveryParseOnly = true
	v1Dir := copyStoreDir(t, dir)
	rewriteAsV1(t, v1Dir)
	cases := []struct {
		name                string
		dir                 string
		opts                Options
		precompiled, parsed int
	}{
		{"keyed", copyStoreDir(t, dir), testOptions(), 8, 0},
		{"parse-only", copyStoreDir(t, dir), parseOnly, 0, 8},
		{"fingerprint-mismatch", copyStoreDir(t, dir), otherSemantics(), 0, 8},
		{"v1-segment", v1Dir, testOptions(), 0, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.NoSnapshotOnClose = true
			s := mustOpen(t, tc.dir, tc.opts)
			defer s.Close()
			st := s.Stats()
			if st.WALAdds != 8 || st.WALRemoves != 2 || st.WALPrecompiled != tc.precompiled || st.WALParsed != tc.parsed {
				t.Fatalf("stats %+v, want 8 adds (%d precompiled, %d parsed), 2 removes", st, tc.precompiled, tc.parsed)
			}
			if got := s.parseJobs.Load(); got != int64(tc.parsed) {
				t.Fatalf("parse path ran %d jobs, want %d", got, tc.parsed)
			}
			want := ref
			if tc.name == "fingerprint-mismatch" {
				// Another semantics level ranks differently: its
				// never-restarted twin is built under the same options.
				want = buildReference(t, tc.opts.Corpus, adds, removes)
			}
			assertCorporaEquivalent(t, s.Corpus(), want, probes)
		})
	}
}

// TestV1TailSegmentRotatesBeforeAppend opens a store whose only segment
// is sbwal-v1: the first append must land in a new sbwal-v2 segment, the
// v1 segment must stay byte-for-byte as it was, and the next Open
// replays both.
func TestV1TailSegmentRotatesBeforeAppend(t *testing.T) {
	dir, adds, removes := keyedWorkload(t)
	rewriteAsV1(t, dir)
	v1Path := segmentName(dir, 1)
	v1Image, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}

	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	extra := testModel(30)
	mustAdd(t, s.Corpus(), extra)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(v1Path); err != nil || !bytes.Equal(after, v1Image) {
		t.Fatalf("v1 segment changed by the append (err %v)", err)
	}
	v2Path := segmentName(dir, 2)
	v2, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatalf("append did not rotate to a new segment: %v", err)
	}
	if string(v2[:len(walMagic)]) != walMagic {
		t.Fatalf("rotated segment header %q, want %q", v2[:len(walMagic)], walMagic)
	}
	if ops := walOps(t, v2Path); ops[opAddKeys] != 1 || len(ops) != 1 {
		t.Fatalf("rotated segment ops %v, want one keyed add", ops)
	}

	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	if st := s2.Stats(); st.WALSegments != 2 || st.WALParsed != 8 || st.WALPrecompiled != 1 {
		t.Fatalf("mixed v1/v2 reopen stats %+v, want 2 segments, 8 parsed, 1 precompiled", st)
	}
	ref := buildReference(t, testOptions().Corpus, append(adds, extra), removes)
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{adds[1], extra})
}

// TestUndecodableKeysFallBackToParse plants a CRC-valid keyed record
// whose keys blob does not decode: that record takes the parse path, and
// the records after it still replay — the log is not cut there.
func TestUndecodableKeysFallBackToParse(t *testing.T) {
	dir := t.TempDir()
	fp := testOptions().Corpus.Match.MatchKeyFingerprint()
	a, b := testModel(1), testModel(2)
	recs := []walRecord{
		{op: opAddKeys, seq: 1, id: a.ID, sbml: []byte(sbml.WrapModel(a).String()), fingerprint: fp, keys: []byte{0xff, 0xff}},
		{op: opAdd, seq: 2, id: b.ID, sbml: []byte(sbml.WrapModel(b).String())},
	}
	if err := os.WriteFile(segmentName(dir, 1), segmentImage(walMagic, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, testOptions())
	defer s.Close()
	if st := s.Stats(); st.WALAdds != 2 || st.WALParsed != 2 || st.TornTail {
		t.Fatalf("stats %+v, want both adds replayed through the parse path", st)
	}
	assertCorporaEquivalent(t, s.Corpus(), buildReference(t, testOptions().Corpus, []*sbml.Model{a, b}, nil), []*sbml.Model{a})
}

// TestReplicaInstallsKeyedFramesWithoutParsing applies a primary's keyed
// feed: with matching match options nothing is parsed, under another
// semantics level every add is, and both followers rank like their
// never-restarted twins. The follower's own log is keyed, so its restart
// parses nothing either.
func TestReplicaInstallsKeyedFramesWithoutParsing(t *testing.T) {
	primary := mustOpen(t, t.TempDir(), testOptions())
	defer primary.Close()
	probes := replicationWorkload(t, primary, 6)
	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		opts   Options
		parsed int64
	}{{"same-options", testOptions(), 0}, {"other-semantics", otherSemantics(), 6}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.opts.NoSnapshotOnClose = true
			follower := mustOpen(t, dir, tc.opts)
			r := harnessReplica(t, follower)
			if err := r.applyFrames(tb.Frames, 0); err != nil {
				t.Fatal(err)
			}
			if got := follower.parseJobs.Load(); got != tc.parsed {
				t.Fatalf("follower parse jobs = %d, want %d", got, tc.parsed)
			}
			want := primary.Corpus()
			if tc.name == "other-semantics" {
				want = replayedReference(t, tc.opts.Corpus, primary)
			}
			assertCorporaEquivalent(t, follower.Corpus(), want, probes)
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}

			reopened := mustOpen(t, dir, tc.opts)
			defer reopened.Close()
			if st := reopened.Stats(); st.WALPrecompiled != 6 || st.WALParsed != 0 {
				t.Fatalf("follower reopen stats %+v, want 6 precompiled", st)
			}
		})
	}
}

// replayedReference builds an in-memory corpus under opts holding the
// models a store holds.
func replayedReference(t *testing.T, opts corpus.Options, s *Store) *corpus.Corpus {
	t.Helper()
	c := corpus.New(opts)
	for _, id := range s.Corpus().IDs() {
		m, ok := s.Corpus().Get(id)
		if !ok {
			t.Fatalf("model %q vanished", id)
		}
		mustAdd(t, c, m)
	}
	return c
}

// TestFeedShipsV1AndV2Segments: a primary upgraded in place holds a v1
// segment of op-1 records and a v2 segment of keyed ones; the feed ships
// both, and a follower parses exactly the keyless adds.
func TestFeedShipsV1AndV2Segments(t *testing.T) {
	dir, adds, removes := keyedWorkload(t)
	rewriteAsV1(t, dir)
	primary := mustOpen(t, dir, testOptions())
	defer primary.Close()
	extra := testModel(31)
	mustAdd(t, primary.Corpus(), extra)

	tb, err := primary.ReadTail(context.Background(), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Records != 11 || tb.FirstSeq != 1 || tb.LastSeq != 11 {
		t.Fatalf("feed shipped %d records (%d..%d), want 11 (1..11)", tb.Records, tb.FirstSeq, tb.LastSeq)
	}
	follower := mustOpen(t, t.TempDir(), testOptions())
	defer follower.Close()
	if err := harnessReplica(t, follower).applyFrames(tb.Frames, 0); err != nil {
		t.Fatal(err)
	}
	if got := follower.parseJobs.Load(); got != 8 {
		t.Fatalf("follower parse jobs = %d, want the 8 keyless adds", got)
	}
	ref := buildReference(t, testOptions().Corpus, append(adds, extra), removes)
	assertCorporaEquivalent(t, follower.Corpus(), ref, []*sbml.Model{adds[0], extra})
}

// TestReadTailRefusesBadMagicSegment: the feed must not skip a segment
// whose full-length magic is unknown (followers accept sequence gaps, so
// its records would be lost silently), but a segment still shorter than
// its magic is mid-creation and holds nothing to ship.
func TestReadTailRefusesBadMagicSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	defer s.Close()
	mustAdd(t, s.Corpus(), testModel(1))

	mid := segmentName(dir, 2)
	if err := os.WriteFile(mid, []byte("sbw"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tb, err := s.ReadTail(context.Background(), 0, 0, 0); err != nil || tb.Records != 1 {
		t.Fatalf("mid-creation segment: %d records, err %v; want 1 record", tb.Records, err)
	}
	if err := os.WriteFile(mid, []byte("notawal!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadTail(context.Background(), 0, 0, 0); err == nil {
		t.Fatal("feed skipped a segment with a bad magic")
	}
	// Let Close's final snapshot rotate into generation 2.
	if err := os.Remove(mid); err != nil {
		t.Fatal(err)
	}
}
