package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// Tests for the binary snapshot codec at the store level: the
// precompiled fast path must recover rankings byte-identical to the
// parse path, damage to derived state must degrade (never corrupt), and
// damage to canonical data must refuse to open. codec.go documents the
// split; this file pins it.

// buildSnapshotDir runs n models through a store and closes it, leaving
// a v2 snapshot (and an empty live segment) in dir.
func buildSnapshotDir(t *testing.T, dir string, n int) []*sbml.Model {
	t.Helper()
	s := mustOpen(t, dir, testOptions())
	var adds []*sbml.Model
	for i := 0; i < n; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return adds
}

func snapPath(dir string) string { return filepath.Join(dir, snapName) }

func mutateSnapshot(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir), mutate(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBinarySnapshotRoundTrip pins the tentpole property: recovery from
// persisted keys (no XML parse at all) yields a corpus whose rankings
// and compositions are identical to the parse path's — checked against
// both a never-restarted reference and a RecoveryParseOnly reopen.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	adds := buildSnapshotDir(t, dir, 12)
	ref := buildReference(t, testOptions().Corpus, adds, nil)
	queries := []*sbml.Model{testModel(2), testModel(40)}

	fast := mustOpen(t, dir, testOptions())
	if st := fast.Stats(); st.SnapshotPrecompiled != 12 || st.SnapshotParsed != 0 {
		t.Fatalf("fast path stats: %+v, want 12 precompiled / 0 parsed", st)
	}
	assertCorporaEquivalent(t, fast.Corpus(), ref, queries)
	if err := fast.Close(); err != nil {
		t.Fatal(err)
	}

	slowOpts := testOptions()
	slowOpts.RecoveryParseOnly = true
	slow := mustOpen(t, dir, slowOpts)
	if st := slow.Stats(); st.SnapshotParsed != 12 || st.SnapshotPrecompiled != 0 {
		t.Fatalf("RecoveryParseOnly stats: %+v, want 12 parsed / 0 precompiled", st)
	}
	assertCorporaEquivalent(t, slow.Corpus(), ref, queries)
	slow.Close()
}

// TestBinarySnapshotKeysDamageFallsBack flips the snapshot's final byte
// — inside the last entry's keys blob — and expects a clean open with
// exactly one entry downgraded to the parse path, results unchanged.
func TestBinarySnapshotKeysDamageFallsBack(t *testing.T) {
	dir := t.TempDir()
	adds := buildSnapshotDir(t, dir, 5)
	mutateSnapshot(t, dir, func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })
	s := mustOpen(t, dir, testOptions())
	if st := s.Stats(); st.SnapshotParsed != 1 || st.SnapshotPrecompiled != 4 {
		t.Fatalf("stats after keys flip: %+v, want 1 parsed / 4 precompiled", st)
	}
	assertCorporaEquivalent(t, s.Corpus(), buildReference(t, testOptions().Corpus, adds, nil),
		[]*sbml.Model{testModel(1)})
	s.Close()
}

// TestSnapshotRecompactsByteIdentical reopens a store from its snapshot,
// through the persisted keys and through the parse path, and compacts it
// again: the new snapshot must equal the old one byte for byte, so the
// corpus gives back exactly the keys it installed.
func TestSnapshotRecompactsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	buildSnapshotDir(t, dir, 12)
	want, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, parseOnly := range []bool{false, true} {
		opts := testOptions()
		opts.RecoveryParseOnly = parseOnly
		s := mustOpen(t, dir, opts)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(snapPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parse only %v: recompacted snapshot differs (%d bytes, want %d)", parseOnly, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotUnknownKeyKindReparses writes a snapshot whose keys section
// for one model is CRC-valid but names a kind no build emits: that model
// takes the parse path, the others install from their keys, and rankings
// match a never-restarted corpus.
func TestSnapshotUnknownKeyKindReparses(t *testing.T) {
	dir := t.TempDir()
	match := testOptions().Corpus.Match
	adds := []*sbml.Model{testModel(1), testModel(2), testModel(3)}
	var blobs []corpus.ModelBlob
	for i, m := range adds {
		keys := core.MatchKeys(m, match)
		if i == 1 {
			keys[0].Kind = "gene"
		}
		blobs = append(blobs, corpus.ModelBlob{ID: m.ID, Doc: corpus.Bytes(sbml.WrapModel(m).String()), Keys: keys})
	}
	image, _, err := encodeSnapshotV2(0, match.MatchKeyFingerprint(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir), image, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, testOptions())
	defer s.Close()
	if st := s.Stats(); st.SnapshotParsed != 1 || st.SnapshotPrecompiled != 2 {
		t.Fatalf("stats %+v, want 1 parsed / 2 precompiled", st)
	}
	assertCorporaEquivalent(t, s.Corpus(), buildReference(t, testOptions().Corpus, adds, nil), []*sbml.Model{adds[1]})
}

// TestBinarySnapshotTruncationRefusesToOpen sweeps every truncation
// length: a snapshot cut anywhere must fail with ErrCorruptSnapshot —
// the header's entry count and the per-entry framing leave no prefix
// that silently decodes as a smaller corpus.
func TestBinarySnapshotTruncationRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	buildSnapshotDir(t, dir, 3)
	data, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for cut := 0; cut < len(data); cut += stride {
		dir2 := t.TempDir()
		if err := os.WriteFile(snapPath(dir2), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir2, testOptions()); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("cut@%d: err = %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

// TestBinarySnapshotBitFlipSweep flips single bytes across the file.
// Every flip must either refuse to open (canonical data or framing
// damaged — the CRCs catch it) or open with results identical to the
// reference (the flip hit derived state and the entry fell back to the
// parse path). Nothing in between: a flip may cost speed, never truth.
func TestBinarySnapshotBitFlipSweep(t *testing.T) {
	dir := t.TempDir()
	adds := buildSnapshotDir(t, dir, 3)
	ref := buildReference(t, testOptions().Corpus, adds, nil)
	query := testModel(1)
	want := stateOf(t, ref, query)
	data, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	stride := 7
	if testing.Short() {
		stride = 41
	}
	fellBack := 0
	for pos := 0; pos < len(data); pos += stride {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x5A
		dir2 := t.TempDir()
		if err := os.WriteFile(snapPath(dir2), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir2, testOptions())
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flip@%d: err = %v, want ErrCorruptSnapshot", pos, err)
			}
			continue
		}
		if st := s.Stats(); st.SnapshotParsed > 0 {
			fellBack++
		}
		assertRecoveredEqualsPrefix(t, s, want, query, "flip@"+itoa(int64(pos)))
		s.Close()
	}
	if fellBack == 0 {
		t.Fatal("no flip exercised the keys-damage fallback path")
	}
}

// TestLegacyV1SnapshotRefused pins the retired sbsnap-1 gob format: a
// file behind its magic no longer opens, and the error says which format
// it is and how to upgrade it rather than calling it garbage.
func TestLegacyV1SnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	file := []byte(snapMagicV1)
	file = binary.LittleEndian.AppendUint32(file, 0)
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(nil))
	if err := os.WriteFile(snapPath(dir), file, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, testOptions())
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("Open of an sbsnap-1 snapshot: %v, want ErrCorruptSnapshot", err)
	}
	for _, want := range []string{snapMagicV1, "older build"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not mention %q", err, want)
		}
	}
}

// TestFingerprintMismatchReparses reopens a snapshot under different
// match options: the persisted keys (derived under the old options) must
// be ignored wholesale and the corpus must rank exactly as one built
// from scratch under the new options.
func TestFingerprintMismatchReparses(t *testing.T) {
	dir := t.TempDir()
	adds := buildSnapshotDir(t, dir, 6)
	newOpts := testOptions()
	newOpts.Corpus.Match = core.Options{Semantics: core.NoSemantics}
	s := mustOpen(t, dir, newOpts)
	if st := s.Stats(); st.SnapshotParsed != 6 || st.SnapshotPrecompiled != 0 {
		t.Fatalf("stats under changed match options: %+v, want all parsed", st)
	}
	assertCorporaEquivalent(t, s.Corpus(), buildReference(t, newOpts.Corpus, adds, nil),
		[]*sbml.Model{testModel(3), testModel(50)})
	s.Close()
}

// TestSnapshotCoversWALInterleaving pins recovery when a binary snapshot
// and a WAL tail coexist: snapshot entries install precompiled, tail
// records (adds and removes past the snapshot's seq) replay through the
// parallel parse path, in order.
func TestSnapshotCoversWALInterleaving(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.NoSnapshotOnClose = true
	s := mustOpen(t, dir, opts)
	var adds []*sbml.Model
	for i := 0; i < 4; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail work past the snapshot: two more adds, one remove of a
	// snapshotted model, one remove of a tail model.
	for i := 4; i < 6; i++ {
		m := testModel(i)
		adds = append(adds, m)
		mustAdd(t, s.Corpus(), m)
	}
	mustRemove(t, s.Corpus(), adds[1].ID)
	mustRemove(t, s.Corpus(), adds[4].ID)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, opts)
	st := s2.Stats()
	if st.SnapshotPrecompiled != 4 || st.SnapshotParsed != 0 {
		t.Fatalf("snapshot stats: %+v, want 4 precompiled", st)
	}
	if st.WALAdds != 2 || st.WALRemoves != 2 {
		t.Fatalf("tail stats: %+v, want 2 adds / 2 removes", st)
	}
	ref := buildReference(t, opts.Corpus, adds, []string{adds[1].ID, adds[4].ID})
	assertCorporaEquivalent(t, s2.Corpus(), ref, []*sbml.Model{testModel(0), testModel(21)})
	s2.Close()
}

// corpusOptionsSanity guards the test setup itself: the fingerprint must
// actually differ between the two option sets the mismatch test uses.
func TestFingerprintTestOptionsDiffer(t *testing.T) {
	a := testOptions().Corpus.Match.MatchKeyFingerprint()
	b := core.Options{Semantics: core.NoSemantics}.MatchKeyFingerprint()
	if a == b {
		t.Fatal("test option sets share a fingerprint; mismatch test is vacuous")
	}
}

// TestDecodeSnapshotReportsFirstFault damages one image in several places
// at once. The entries decode in parallel, but the error must be the one a
// serial decode meets first: the lowest damaged entry ahead of a torn
// frame, else the torn frame, else trailing bytes; damage to keys
// sections only clears those entries' keysOK. Each case runs at one and at
// two procs.
func TestDecodeSnapshotReportsFirstFault(t *testing.T) {
	const n = 10
	match := testOptions().Corpus.Match
	blobs := make([]corpus.ModelBlob, n)
	for i := range blobs {
		m := testModel(i)
		blobs[i] = corpus.ModelBlob{ID: m.ID, Doc: corpus.Bytes(sbml.WrapModel(m).String()), Keys: core.MatchKeys(m, match)}
	}
	image, spans, err := encodeSnapshotV2(9, match.MatchKeyFingerprint(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	// Each entry's core section is framed by entryLen, coreLen and coreCRC
	// ahead of it and by keysLen and keysCRC after it.
	damageCore := func(b []byte, i int) { b[spans[i].off] ^= 0xFF }
	damageKeys := func(b []byte, i int) { b[spans[i].off+int64(spans[i].n)+8] ^= 0xFF }
	tearFrame := func(b []byte, i int) { binary.LittleEndian.PutUint32(b[spans[i].off-12:], 3) }

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string // "" means the image decodes
		noKeys  []int  // entries whose keysOK must be false
	}{
		{"core damage at 3 and 7", func(b []byte) []byte { damageCore(b, 7); damageCore(b, 3); return b }, "entry 3: core CRC mismatch", nil},
		{"torn frame at 5 behind core damage at 2", func(b []byte) []byte { tearFrame(b, 5); damageCore(b, 2); return b }, "entry 2: core CRC mismatch", nil},
		{"torn frame at 5, core damage only at 8", func(b []byte) []byte { tearFrame(b, 5); damageCore(b, 8); return b }, "entry 5: implausible length 3", nil},
		{"trailing bytes behind core damage at 9", func(b []byte) []byte { damageCore(b, 9); return append(b, 0) }, "entry 9: core CRC mismatch", nil},
		{"trailing bytes only", func(b []byte) []byte { return append(b, 0, 0) }, "2 trailing bytes", nil},
		{"keys damage at 1, 4 and 9", func(b []byte) []byte { damageKeys(b, 9); damageKeys(b, 1); damageKeys(b, 4); return b }, "", []int{1, 4, 9}},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			sf, err := decodeSnapshotV2(tc.mutate(bytes.Clone(image)))
			runtime.GOMAXPROCS(prev)
			if tc.wantErr != "" {
				if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("%s, %d procs: err = %v, want ErrCorruptSnapshot naming %q", tc.name, procs, err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, %d procs: %v", tc.name, procs, err)
			}
			if len(sf.entries) != n {
				t.Fatalf("%s, %d procs: %d entries, want %d", tc.name, procs, len(sf.entries), n)
			}
			for i, e := range sf.entries {
				if e.id != blobs[i].ID || e.core != spans[i] || e.keysOK == slices.Contains(tc.noKeys, i) {
					t.Fatalf("%s, %d procs: entry %d = {id %q, core %+v, keysOK %v}", tc.name, procs, i, e.id, e.core, e.keysOK)
				}
			}
		}
	}
}
