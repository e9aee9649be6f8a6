package store

import (
	"os"
	"strings"
	"testing"
	"time"
)

// These tests pin the failure branches that the happy-path and crash
// suites cannot reach: malformed record payloads, wedged writers, and
// snapshot/compaction failures after the directory disappears.

func TestDecodeRecordRejectsMalformedPayloads(t *testing.T) {
	valid := encodeRecord(walRecord{op: opAdd, seq: 7, id: "m1", sbml: []byte("<sbml/>")})
	cases := map[string][]byte{
		"empty":                 {},
		"unknown op":            {99, 1, 1, 'x'},
		"truncated seq":         {opAdd, 0x80}, // continuation bit with no next byte
		"id length overruns":    {opAdd, 1, 200},
		"sbml length mismatch":  valid[:len(valid)-2],
		"trailing bytes remove": append(encodeRecord(walRecord{op: opRemove, seq: 1, id: "m"}), 0xAA),
		"sbml varint truncated": {opAdd, 1, 1, 'x', 0x80},
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	if rec, err := decodeRecord(valid); err != nil || rec.id != "m1" || rec.seq != 7 {
		t.Fatalf("valid payload rejected: %+v, %v", rec, err)
	}
}

func TestWriterWedgesAfterUnrepairableFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := createSegment(segmentName(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendFrames(appendFrame(nil, walRecord{op: opRemove, seq: 1, id: "a"})); err != nil {
		t.Fatal(err)
	}
	// Closing the fd under the writer makes the next write fail AND the
	// repair truncate fail — the wedge case.
	w.f.Close()
	if err := w.appendFrames(appendFrame(nil, walRecord{op: opRemove, seq: 2, id: "b"})); err == nil {
		t.Fatal("append on closed fd succeeded")
	}
	if w.wedged == nil {
		t.Fatal("writer did not wedge")
	}
	if err := w.appendFrames(appendFrame(nil, walRecord{op: opRemove, seq: 3, id: "c"})); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("wedged writer accepted an append: %v", err)
	}
}

func TestCreateAndOpenSegmentFailures(t *testing.T) {
	dir := t.TempDir()
	path := segmentName(dir, 1)
	if err := os.WriteFile(path, []byte("occupied"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := createSegment(path); err == nil {
		t.Fatal("createSegment over an existing file succeeded")
	}
	if _, err := openSegmentForAppend(segmentName(dir, 2), 8); err == nil {
		t.Fatal("openSegmentForAppend on a missing file succeeded")
	}
}

func TestSegmentGenRejectsUnparseableNames(t *testing.T) {
	if _, err := segmentGen("/x/wal-nothex.log"); err == nil {
		t.Fatal("unparseable segment name accepted")
	}
	if gen, err := segmentGen(segmentName("/x", 0xAB)); err != nil || gen != 0xAB {
		t.Fatalf("round-trip gen = %d, %v", gen, err)
	}
}

// TestOpenRejectsUnparseableSegmentName covers the Open branch where a
// file matches the wal-*.log glob but carries a non-hex generation.
func TestOpenRejectsUnparseableSegmentName(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/wal-nothexnothexnot.log", []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Fatalf("Open with unparseable segment name: %v", err)
	}
}

// TestReplayRejectsUnparseableStoredModel covers the parse path's failure
// branches: CRC-valid add records whose blob does not parse, parses to
// no model, or carries a different model id.
func TestReplayRejectsUnparseableStoredModel(t *testing.T) {
	writeWAL := func(t *testing.T, rec walRecord) string {
		dir := t.TempDir()
		w, err := createSegment(segmentName(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.appendFrames(appendFrame(nil, rec)); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name   string
		rec    walRecord
		detail string
	}{
		{"garbage blob", walRecord{op: opAdd, seq: 1, id: "m", sbml: []byte("<not-xml")}, "parse stored model"},
		{"no model", walRecord{op: opAdd, seq: 1, id: "m", sbml: []byte(`<sbml level="2" version="4"></sbml>`)}, "no <model>"},
		{"id mismatch", walRecord{op: opAdd, seq: 1, id: "other", sbml: []byte(`<sbml level="2" version="4"><model id="m"/></sbml>`)}, "record says"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeWAL(t, tc.rec)
			if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("Open: %v, want detail %q", err, tc.detail)
			}
		})
	}
}

func TestSnapshotFailsWhenDirVanishes(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	s := mustOpen(t, dir, opts)
	mustAdd(t, s.Corpus(), testModel(0))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded without a directory")
	}
	// Appends keep working on the open fd; only snapshotting is broken.
	mustAdd(t, s.Corpus(), testModel(1))
	// Close reports the final-snapshot failure rather than hiding it.
	if err := s.Close(); err == nil {
		t.Fatal("Close hid the snapshot failure")
	}
}

func TestAutoCompactionFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Fsync = FsyncNever
	opts.CompactBytes = 1 // every append triggers compaction
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, s.Corpus(), testModel(0))
	deadline := time.Now().Add(5 * time.Second)
	for s.Status().CompactError == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if msg := s.Status().CompactError; !strings.Contains(msg, "snapshot") {
		t.Fatalf("compaction failure not surfaced: %q", msg)
	}
	s.Close()
}

// TestTornTailInNonFinalSegmentRefusesToOpen pins that a gap in the
// middle of the segment sequence — a torn tail in a segment that has
// newer segments after it — fails Open loudly instead of replaying
// records across the gap.
func TestTornTailInNonFinalSegmentRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	w1, err := createSegment(segmentName(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.appendFrames(appendFrame(nil, walRecord{op: opRemove, seq: 1, id: "a"})); err != nil {
		t.Fatal(err)
	}
	if err := w1.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the first segment's tail, then add a clean newer segment.
	fi, err := os.Stat(segmentName(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segmentName(dir, 1), fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	w2, err := createSegment(segmentName(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); err == nil || !strings.Contains(err.Error(), "refusing to replay past the gap") {
		t.Fatalf("Open with mid-sequence torn tail: %v", err)
	}
}

// TestWriteSnapshotDirectFailure covers writeSnapshot's temp-file branch
// without going through rotation.
func TestWriteSnapshotDirectFailure(t *testing.T) {
	if _, err := writeSnapshot("/nonexistent-store-dir", 0, 0, nil); err == nil {
		t.Fatal("writeSnapshot without a directory succeeded")
	}
}
