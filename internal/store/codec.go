package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/par"
)

// This file implements the snapshot file: the binary codec (format
// sbsnap-2) and the atomic write and load. Where the retired sbsnap-1 gob
// format stored only each model's canonical SBML bytes — forcing recovery
// to re-parse and re-derive match keys, the dominant restart cost — v2
// persists the derived state alongside them, so Open installs precompiled
// entries and skips the XML pipeline entirely.
//
// # Layout
//
//	"sbsnap-2"              8-byte magic (format version)
//	uint64 LE  lastSeq      highest WAL seq the snapshot covers
//	uint64 LE  fingerprint  core.Options.MatchKeyFingerprint of the match
//	                        options the keys were derived under
//	uint32 LE  count        entry count
//	uint32 LE  headerCRC    CRC-32 (IEEE) of the 20 header bytes above
//	count entries:
//	  uint32 LE entryLen    bytes in this entry after this field
//	  uint32 LE coreLen     bytes in the core section
//	  uint32 LE coreCRC     CRC-32 of the core section
//	  core section:         uvarint len(id) + id,
//	                        uvarint len(sbml) + canonical SBML bytes
//	  uint32 LE keysLen     bytes in the keys section
//	  uint32 LE keysCRC     CRC-32 of the keys section
//	  keys section:         core.EncodeMatchKeys blob
//
// # Corruption semantics
//
// The two per-entry sections fail differently, by design. The core
// section holds the canonical bytes — the source of truth; losing it
// loses the model, so a core CRC mismatch (or any framing damage that
// makes the core unreachable) is a hard ErrCorruptSnapshot. The keys
// section holds only derived state that can always be rebuilt from the
// core bytes, so a keys CRC mismatch, an undecodable keys blob, or a
// whole-file fingerprint mismatch degrades that entry (or file) to the
// parse path: slower, never wrong. Any other magic is a hard error,
// including the sbsnap-1 gob format this code no longer reads.
//
// A core section is also what a recovered entry's locator points at
// (doc.go): the entry keeps the section's offset, length and CRC, and
// every later read of the model re-runs the core CRC check.
//
// Files are written atomically (temp file + fsync + rename) so a crash
// mid-write leaves the previous snapshot intact.

const (
	snapMagicV2 = "sbsnap-2"
	// snapMagicV1 heads the legacy gob format, recognized only to refuse
	// it with a message saying how to upgrade.
	snapMagicV1 = "sbsnap-1"
	// snapName is the single live snapshot file; writes replace it
	// atomically.
	snapName = "corpus.snap"
)

// ErrCorruptSnapshot marks an unreadable snapshot file. Recovery will not
// guess around it: the operator must restore or delete the snapshot.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// snapHeaderLen is the fixed header after the magic: lastSeq (8) +
// fingerprint (8) + count (4) + headerCRC (4).
const snapHeaderLen = 24

// snapEntry is one decoded snapshot entry. keysOK reports that the keys
// section survived intact and was derived under the opening corpus's
// match options; without it the entry must be re-parsed and re-derived.
// sbml aliases the image the entry was decoded from; core locates the
// entry's core section in that image.
type snapEntry struct {
	id     string
	sbml   []byte
	keys   []core.ComponentKey
	keysOK bool
	core   span
}

// snapFile is a decoded snapshot.
type snapFile struct {
	lastSeq     uint64
	fingerprint uint64
	entries     []snapEntry
}

// encodeSnapshot streams the full snapshot file image (magic included)
// to w, reading each blob's canonical bytes through its Doc, and returns
// the span of every blob's core section in the image. A Doc that fails
// its read fails the encoding: a snapshot never copies damaged bytes. One
// entry at a time is buffered, so a compaction holds no second copy of
// the corpus.
func encodeSnapshot(w io.Writer, lastSeq, fingerprint uint64, blobs []corpus.ModelBlob) ([]span, error) {
	buf := make([]byte, 0, len(snapMagicV2)+snapHeaderLen)
	buf = append(buf, snapMagicV2...)
	buf = binary.LittleEndian.AppendUint64(buf, lastSeq)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blobs)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(snapMagicV2):]))
	spans := make([]span, len(blobs))
	off := int64(0)
	for i, b := range blobs {
		if _, err := w.Write(buf); err != nil {
			return nil, err
		}
		off += int64(len(buf))
		model, err := b.Doc.Bytes()
		if err != nil {
			return nil, fmt.Errorf("store: snapshot model %q: %w", b.ID, err)
		}
		// Entry: entryLen, coreLen, coreCRC, core, keysLen, keysCRC, keys;
		// the three leading fields are filled in once the core is laid out.
		buf = append(buf[:0], make([]byte, 12)...)
		buf = binary.AppendUvarint(buf, uint64(len(b.ID)))
		buf = append(buf, b.ID...)
		buf = binary.AppendUvarint(buf, uint64(len(model)))
		buf = append(buf, model...)
		cs := buf[12:]
		spans[i] = span{off: off + 12, n: uint32(len(cs)), crc: crc32.ChecksumIEEE(cs)}
		keys := core.EncodeMatchKeys(b.Keys)
		binary.LittleEndian.PutUint32(buf[0:4], uint32(16+len(cs)+len(keys)))
		binary.LittleEndian.PutUint32(buf[4:8], spans[i].n)
		binary.LittleEndian.PutUint32(buf[8:12], spans[i].crc)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(keys))
		buf = append(buf, keys...)
	}
	_, err := w.Write(buf)
	return spans, err
}

// encodeSnapshotV2 renders the full snapshot file image in memory: the
// replication bootstrap payload.
func encodeSnapshotV2(lastSeq, fingerprint uint64, blobs []corpus.ModelBlob) ([]byte, []span, error) {
	var image bytes.Buffer
	spans, err := encodeSnapshot(&image, lastSeq, fingerprint, blobs)
	if err != nil {
		return nil, nil, err
	}
	return image.Bytes(), spans, nil
}

// corruptf wraps a format violation in ErrCorruptSnapshot.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: %s: %s: %w", snapName, fmt.Sprintf(format, args...), ErrCorruptSnapshot)
}

// decodeSnapshotV2 parses a full snapshot file image. Damage to canonical
// data is a hard error; damage confined to a keys section only clears
// that entry's keysOK. The entries alias data.
//
// A serial pass frames the entries by their lengths; the CRC checks and
// decodes of the framed entries then fan out with par.Do, each writing its
// own slot. The error is the one a serial decode meets first: the lowest
// failing framed entry, else the framing error, else trailing bytes.
func decodeSnapshotV2(data []byte) (snapFile, error) {
	var sf snapFile
	if len(data) < len(snapMagicV2) {
		return sf, corruptf("bad header")
	}
	switch magic := string(data[:len(snapMagicV2)]); magic {
	case snapMagicV2:
	case snapMagicV1:
		return sf, corruptf("legacy %s format is no longer readable; open the store once with an older build, which rewrites the snapshot as %s on close", snapMagicV1, snapMagicV2)
	default:
		return sf, corruptf("unknown magic %q", magic)
	}
	rest := data[len(snapMagicV2):]
	if len(rest) < snapHeaderLen {
		return sf, corruptf("truncated header")
	}
	header := rest[:snapHeaderLen-4]
	if crc32.ChecksumIEEE(header) != binary.LittleEndian.Uint32(rest[snapHeaderLen-4:snapHeaderLen]) {
		return sf, corruptf("header CRC mismatch")
	}
	sf.lastSeq = binary.LittleEndian.Uint64(header[0:8])
	sf.fingerprint = binary.LittleEndian.Uint64(header[8:16])
	count := binary.LittleEndian.Uint32(header[16:20])
	rest = rest[snapHeaderLen:]
	if uint64(count) > uint64(len(rest)) {
		// Entries occupy many bytes each; a count beyond the remaining
		// byte count is corruption, not an allocation request.
		return sf, corruptf("entry count %d exceeds file size", count)
	}
	// frames[i] is the image offset of entry i's bytes after its entryLen
	// field, and their end.
	frames := make([][2]int, 0, count)
	var frameErr error
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			frameErr = corruptf("entry %d: truncated frame", i)
			break
		}
		entryLen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(entryLen) > uint64(len(rest)) || entryLen < 16 {
			frameErr = corruptf("entry %d: implausible length %d", i, entryLen)
			break
		}
		off := len(data) - len(rest)
		frames = append(frames, [2]int{off, off + int(entryLen)})
		rest = rest[entryLen:]
	}
	sf.entries = make([]snapEntry, len(frames))
	err := par.Do(context.TODO(), len(frames), func(_, i int) error {
		f := frames[i]
		e, err := decodeSnapEntry(data[f[0]:f[1]])
		if err != nil {
			return corruptf("entry %d: %v", i, err)
		}
		e.core.off += int64(f[0])
		sf.entries[i] = e
		return nil
	})
	switch {
	case err != nil:
		return snapFile{}, err
	case frameErr != nil:
		return snapFile{}, frameErr
	case len(rest) != 0:
		return snapFile{}, corruptf("%d trailing bytes after last entry", len(rest))
	}
	return sf, nil
}

// decodeSnapEntry checks and decodes one framed entry, eb: the bytes after
// its entryLen field. The returned core span is relative to eb.
func decodeSnapEntry(eb []byte) (snapEntry, error) {
	coreLen := binary.LittleEndian.Uint32(eb[0:4])
	coreCRC := binary.LittleEndian.Uint32(eb[4:8])
	if uint64(coreLen) > uint64(len(eb))-16 {
		return snapEntry{}, errors.New("core section overruns entry")
	}
	coreBytes := eb[8 : 8+coreLen]
	if crc32.ChecksumIEEE(coreBytes) != coreCRC {
		return snapEntry{}, errors.New("core CRC mismatch")
	}
	e, err := decodeSnapCore(coreBytes)
	if err != nil {
		return snapEntry{}, err
	}
	e.core = span{off: 8, n: coreLen, crc: coreCRC}

	// Keys section: any inconsistency here downgrades the entry to the
	// parse path instead of failing the load — the canonical bytes above
	// are intact and re-derivation is always correct.
	keysFrame := eb[8+coreLen:]
	if len(keysFrame) >= 8 {
		keysLen := binary.LittleEndian.Uint32(keysFrame[0:4])
		keysCRC := binary.LittleEndian.Uint32(keysFrame[4:8])
		keysBytes := keysFrame[8:]
		if uint64(keysLen) == uint64(len(keysBytes)) && crc32.ChecksumIEEE(keysBytes) == keysCRC {
			if keys, err := core.DecodeMatchKeys(keysBytes); err == nil {
				e.keys, e.keysOK = keys, true
			}
		}
	}
	return e, nil
}

// decodeSnapCore parses an entry's core section (id + canonical bytes).
// The returned sbml aliases b.
func decodeSnapCore(b []byte) (snapEntry, error) {
	var e snapEntry
	idLen, n := core.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) < idLen {
		return e, fmt.Errorf("bad id length")
	}
	b = b[n:]
	e.id = string(b[:idLen])
	b = b[idLen:]
	blobLen, n := core.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) != blobLen {
		return e, fmt.Errorf("bad sbml length")
	}
	e.sbml = b[n:]
	if e.id == "" || len(e.sbml) == 0 {
		return e, fmt.Errorf("empty id or model bytes")
	}
	return e, nil
}

// writeSnapshot streams an sbsnap-2 snapshot of blobs into
// dir/corpus.snap and returns a Doc for each blob, reading it from the new
// file. fingerprint records the match options the blobs' keys were
// derived under, so a later Open with different options knows to
// re-derive.
func writeSnapshot(dir string, lastSeq, fingerprint uint64, blobs []corpus.ModelBlob) ([]corpus.Doc, error) {
	var spans []span
	f, err := installSnapshot(dir, func(w io.Writer) (err error) {
		spans, err = encodeSnapshot(w, lastSeq, fingerprint, blobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	docs := make([]corpus.Doc, len(spans))
	for i, sp := range spans {
		docs[i] = &fileDoc{f: f, span: sp, snap: true}
	}
	return docs, nil
}

// writeSnapshotImage installs an already encoded snapshot file image —
// the replication bootstrap path, which receives the primary's image
// verbatim.
func writeSnapshotImage(dir string, image []byte) (*os.File, error) {
	return installSnapshot(dir, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	})
}

// installSnapshot atomically replaces dir/corpus.snap with what write
// produces (temp file + fsync + rename + directory sync) and returns a
// read-only handle on the installed file for its locators. Snapshots are
// serialized (Store.snapMu), so the file opened after the rename is the
// one just written. A failure to open it fails the write: the caller
// keeps every file its entries read from, as when the write itself fails.
func installSnapshot(dir string, write func(io.Writer) error) (*os.File, error) {
	f, err := os.CreateTemp(dir, snapName+".tmp*")
	if err != nil {
		return nil, err
	}
	tmpPath := f.Name()
	defer os.Remove(tmpPath) // no-op after the rename
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, snapName)
	if err := os.Rename(tmpPath, path); err != nil {
		return nil, err
	}
	syncDir(dir)
	return os.Open(path)
}

// loadSnapshot reads and decodes dir/corpus.snap, returning with it the
// read-only handle the entries' locators read through. A missing file is
// a fresh store (nil handle, no error); an unknown magic or damaged
// canonical data wraps ErrCorruptSnapshot.
func loadSnapshot(dir string) (snapFile, *os.File, error) {
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return snapFile{}, nil, nil
	}
	if err != nil {
		return snapFile{}, nil, err
	}
	sf, err := decodeSnapshotV2(data)
	if err != nil {
		return snapFile{}, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return snapFile{}, nil, err
	}
	return sf, f, nil
}
