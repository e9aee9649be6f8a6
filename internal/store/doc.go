package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// This file implements the store's corpus.Doc: a locator naming where a
// model's canonical bytes lie in a store file, so corpus entries keep
// their postings resident and leave their documents on disk. Every read
// re-verifies the CRC the file format already carries before anything
// parses the bytes — the check recovery runs, run again at use time.

// ErrCorruptDoc marks a stored model whose bytes cannot be read back
// intact: the read came up short, the bytes fail their CRC, or they no
// longer decode as the record they were written as. The corpus reports
// such a model absent from Get, and its structural operations (compose,
// simulate, check) return an error wrapping this one.
var ErrCorruptDoc = errors.New("stored model bytes are unreadable or corrupt")

// span addresses one CRC-guarded region of a store file: n bytes at off
// whose CRC-32 (IEEE) is crc. A WAL record's span is its frame payload,
// under the frame CRC; a snapshot entry's is its core section (id plus
// canonical bytes), under the core CRC.
type span struct {
	off int64
	n   uint32
	crc uint32
}

// fileDoc is a span in one store file. Every fileDoc into a file shares
// one read-only handle, opened when the store created or first read the
// file. The handle is never closed explicitly: the os.File cleanup closes
// it once no fileDoc (and no store state) reaches it. A read in flight
// therefore never races a close, and a file deleted by compaction keeps
// its disk space only until relocation has moved every entry off it and
// the collector has run.
type fileDoc struct {
	f *os.File
	span
	// snap reports a snapshot core section; otherwise the span is a WAL
	// record payload.
	snap bool
}

// Bytes reads the span and returns the model's canonical bytes.
func (d *fileDoc) Bytes() ([]byte, error) {
	b, err := readSpan(d.f, d.span, d.snap)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(d.f.Name()), err)
	}
	return b, nil
}

// readSpan is the read path of every fileDoc: read the span, verify its
// CRC, then decode it as a snapshot core section or a WAL add record and
// return the canonical bytes inside. Nothing is decoded before the CRC
// holds.
func readSpan(r io.ReaderAt, sp span, snap bool) ([]byte, error) {
	buf := make([]byte, sp.n)
	if _, err := r.ReadAt(buf, sp.off); err != nil {
		return nil, fmt.Errorf("read %d bytes at offset %d: %v: %w", sp.n, sp.off, err, ErrCorruptDoc)
	}
	if crc32.ChecksumIEEE(buf) != sp.crc {
		return nil, fmt.Errorf("CRC mismatch in %d bytes at offset %d: %w", sp.n, sp.off, ErrCorruptDoc)
	}
	if snap {
		e, err := decodeSnapCore(buf)
		if err != nil {
			return nil, fmt.Errorf("snapshot entry at offset %d: %v: %w", sp.off, err, ErrCorruptDoc)
		}
		return e.sbml, nil
	}
	rec, err := decodeRecord(buf)
	if err == nil && rec.op != opAdd && rec.op != opAddKeys {
		err = fmt.Errorf("op %d carries no model", rec.op)
	}
	if err != nil {
		return nil, fmt.Errorf("WAL record at offset %d: %v: %w", sp.off, err, ErrCorruptDoc)
	}
	return rec.sbml, nil
}
