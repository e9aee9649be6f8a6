package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// This file implements the write-ahead-log layer: record framing,
// encoding, the append path (with its failed-write repair), and the
// replay reader with torn-tail detection. The on-disk format is
// documented in the package comment (store.go); everything here must keep
// that comment true.

const (
	// walMagic heads every segment this code creates. Readers also accept
	// walMagicV1, whose segments never hold an opAddKeys record: an
	// older binary treats an unknown op as a torn tail and would truncate
	// acknowledged records after it, so op 3 is only ever written behind
	// the v2 magic, which that binary refuses outright.
	walMagic    = "sbwal-v2" // 8-byte segment header
	walMagicV1  = "sbwal-v1"
	walFrameLen = 8 // uint32 length + uint32 CRC32
	// walMaxRecord bounds a decoded length prefix. A frame claiming more
	// is treated as a torn/corrupt tail, not an allocation request — a
	// flipped bit in the length field must not ask for gigabytes.
	walMaxRecord = 1 << 30

	opAdd    = 1
	opRemove = 2
	// opAddKeys is opAdd plus the model's match keys and the fingerprint
	// of the match options they were derived under.
	opAddKeys = 3
)

var walCRC = crc32.IEEETable

// walRecord is one decoded WAL record.
type walRecord struct {
	op  byte
	seq uint64
	id  string
	// sbml holds the canonical model bytes for opAdd and opAddKeys
	// records. A decoded record's sbml aliases the payload it came from:
	// recovery reads it only on the parse path, while the segment image is
	// still live, and installs a locator (doc.go) rather than the bytes.
	sbml []byte
	// fingerprint and keys (opAddKeys only) are the match-options
	// fingerprint and the core.EncodeMatchKeys blob. The blob is kept
	// encoded: it is decoded only where the trust rule accepts it
	// (recover.go), and a blob that fails to decode there only sends the
	// model down the parse path. A decoded record's blob aliases the
	// payload it came from.
	fingerprint uint64
	keys        []byte
}

// encodeRecord renders the record payload: op byte, then uvarint seq,
// uvarint-length-prefixed id, for adds a uvarint-length-prefixed
// canonical SBML blob, and for keyed adds the uint64 LE fingerprint
// followed by the keys blob, which runs to the end of the payload.
func encodeRecord(rec walRecord) []byte {
	return appendPayload(make([]byte, 0, payloadCap(rec)), rec)
}

// payloadCap bounds the size of rec's encoded payload.
func payloadCap(rec walRecord) int {
	return 1 + binary.MaxVarintLen64*3 + len(rec.id) + len(rec.sbml) + 8 + len(rec.keys)
}

// appendPayload appends rec's encodeRecord payload to buf.
func appendPayload(buf []byte, rec walRecord) []byte {
	buf = append(buf, rec.op)
	buf = binary.AppendUvarint(buf, rec.seq)
	buf = binary.AppendUvarint(buf, uint64(len(rec.id)))
	buf = append(buf, rec.id...)
	if rec.op == opAdd || rec.op == opAddKeys {
		buf = binary.AppendUvarint(buf, uint64(len(rec.sbml)))
		buf = append(buf, rec.sbml...)
	}
	if rec.op == opAddKeys {
		buf = binary.LittleEndian.AppendUint64(buf, rec.fingerprint)
		buf = append(buf, rec.keys...)
	}
	return buf
}

// decodeRecord parses a payload that already passed its CRC check. An
// error here still only drops the tail (the payload was intact on disk
// but unintelligible, so nothing after it can be trusted either).
func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) == 0 {
		return rec, fmt.Errorf("empty payload")
	}
	rec.op = payload[0]
	rest := payload[1:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return rec, fmt.Errorf("bad seq varint")
	}
	rec.seq = seq
	rest = rest[n:]
	idLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest[n:])) < idLen {
		return rec, fmt.Errorf("bad id length")
	}
	rest = rest[n:]
	rec.id = string(rest[:idLen])
	rest = rest[idLen:]
	switch rec.op {
	case opAdd, opAddKeys:
		blobLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest[n:])) < blobLen {
			return rec, fmt.Errorf("bad sbml length")
		}
		rest = rest[n:]
		rec.sbml = rest[:blobLen]
		rest = rest[blobLen:]
		if rec.op == opAdd {
			if len(rest) != 0 {
				return rec, fmt.Errorf("bad sbml length")
			}
			break
		}
		if len(rest) < 8 {
			return rec, fmt.Errorf("truncated key fingerprint")
		}
		rec.fingerprint = binary.LittleEndian.Uint64(rest)
		rec.keys = rest[8:]
	case opRemove:
		if len(rest) != 0 {
			return rec, fmt.Errorf("trailing bytes in remove record")
		}
	default:
		return rec, fmt.Errorf("unknown op %d", rec.op)
	}
	return rec, nil
}

// appendFrame appends rec to dst as one framed record: length + CRC
// header, then the payload, encoded in place so the record is copied
// once. This exact byte layout is also the replication wire format — the
// primary ships WAL frames verbatim and the follower re-verifies the CRC
// before applying, so corruption anywhere between the primary's disk and
// the follower's decoder is caught by the same check recovery uses.
func appendFrame(dst []byte, rec walRecord) []byte {
	start := len(dst)
	dst = slices.Grow(dst, walFrameLen+payloadCap(rec))
	dst = appendPayload(dst[:start+walFrameLen], rec)
	payload := dst[start+walFrameLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, walCRC))
	return dst
}

// nextFrame scans one frame at data[off:]. ok is false at the first torn
// or corrupt frame — short header, implausible length, CRC mismatch —
// after which nothing at or beyond off can be trusted. end is the offset
// just past the frame.
func nextFrame(data []byte, off int64) (payload []byte, end int64, ok bool) {
	size := int64(len(data))
	if size-off < walFrameLen {
		return nil, off, false
	}
	length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if length > walMaxRecord || off+walFrameLen+length > size {
		return nil, off, false
	}
	payload = data[off+walFrameLen : off+walFrameLen+length]
	if crc32.Checksum(payload, walCRC) != sum {
		return nil, off, false
	}
	return payload, off + walFrameLen + length, true
}

// walWriter appends framed records to one segment file.
type walWriter struct {
	f *os.File
	// r is the segment's read-only handle, shared by the locators of the
	// records appended here; it outlives f, which rotation closes.
	r   *os.File
	off int64 // current append offset (file size)
	// syncedOff is the highest offset known durable, maintained by the
	// group commit (group.go) as its rollback target; interval syncing
	// never consults it.
	syncedOff int64
	wedged    error // sticky failure after an unrepairable partial append
	// syncHook, when non-nil, replaces f.Sync so tests can inject sync
	// failures (the crash harness's failed-fsync coverage); a closure that
	// counts its calls can fail the commit sync but let the rollback sync
	// through, or fail both.
	syncHook func(*os.File) error
	// metrics, when non-nil, times every physical sync (Options.Metrics,
	// installed by the store after segment creation).
	metrics *Metrics
}

// doSync flushes the file, through the test hook when one is set.
func (w *walWriter) doSync() error {
	if w.metrics != nil {
		t0 := time.Now()
		defer func() { w.metrics.FsyncSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	if w.syncHook != nil {
		return w.syncHook(w.f)
	}
	return w.f.Sync()
}

// createSegment creates a fresh segment with its header written, and
// opens its read-only handle. The header is not synced here: the first
// sync of the segment covers it, and a crash before then leaves a segment
// shorter than its header, which recovery recreates.
func createSegment(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	r, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, r: r, off: int64(len(walMagic)), syncedOff: int64(len(walMagic))}, nil
}

// openSegmentForAppend opens an existing segment, already verified and
// tail-repaired by the replay pass, positioned at size for appending, and
// opens its read-only handle for the records appended from here on.
func openSegmentForAppend(path string, size int64) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	r, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, r: r, off: size, syncedOff: size}, nil
}

// frameSpan is the span of the payload of the frame at frame[0:], which
// sits at offset off of its segment.
func frameSpan(frame []byte, off int64) span {
	return span{
		off: off + walFrameLen,
		n:   binary.LittleEndian.Uint32(frame[0:4]),
		crc: binary.LittleEndian.Uint32(frame[4:8]),
	}
}

// appendFrames writes one or more framed records as a single write; it
// never syncs (under FsyncAlways the group commit does, group.go). On a
// short or failed write it truncates the file back to the pre-append
// offset so the segment stays well-formed; if even that fails the writer
// wedges — every later append fails fast rather than writing acked
// records after an unreadable gap (replay drops everything from the first
// bad frame, so records behind a gap would be silently lost).
func (w *walWriter) appendFrames(frames []byte) error {
	if w.wedged != nil {
		return fmt.Errorf("wal wedged by earlier failure: %w", w.wedged)
	}
	if _, err := w.f.Write(frames); err != nil {
		w.rollback("append", err)
		return err
	}
	w.off += int64(len(frames))
	return nil
}

// rollback truncates the segment back to w.off after a failed append or
// sync; if the file cannot be restored the writer wedges.
func (w *walWriter) rollback(op string, cause error) {
	if terr := w.f.Truncate(w.off); terr != nil {
		w.wedged = fmt.Errorf("%s failed (%v) and truncate failed (%v)", op, cause, terr)
		return
	}
	if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
		w.wedged = fmt.Errorf("%s failed (%v) and re-seek failed (%v)", op, cause, serr)
		return
	}
	// The truncate must itself be synced: the failed append's bytes may
	// already sit in the OS cache (or on disk — a failed fsync reports an
	// unknown durable state), and a crash before the truncate reaches the
	// device would resurrect a record whose caller was told it failed. If
	// the device will not confirm the rollback, the writer wedges — no
	// later append may be acknowledged on top of an unconfirmed tail.
	if serr := w.doSync(); serr != nil {
		w.wedged = fmt.Errorf("%s failed (%v) and rollback sync failed (%v)", op, cause, serr)
	}
}

func (w *walWriter) fsync() error {
	if w.wedged != nil {
		return fmt.Errorf("wal wedged by earlier failure: %w", w.wedged)
	}
	return w.doSync()
}

func (w *walWriter) close() error {
	if err := w.doSync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// segmentReplay is the outcome of reading one segment.
type segmentReplay struct {
	records []walRecord
	// spans[i] locates records[i]'s payload in the segment; f, set by
	// readSegment, is the read-only handle their locators read through.
	spans []span
	f     *os.File
	// goodOff is the offset just past the last intact record; droppedBytes
	// counts what a torn or corrupt tail cost.
	goodOff      int64
	droppedBytes int64
	size         int64
	// v1 reports an sbwal-v1 header: Open must not append to the segment.
	v1 bool
}

// checkSegmentMagic checks a segment image's header, the one magic check
// recovery and the replication feed share. An image shorter than the
// magic is a segment mid-creation and passes (the callers treat it as
// holding no records); a full-length magic must be sbwal-v2 or sbwal-v1,
// and v1 reports which. Anything else is not a WAL segment, and guessing
// would mis-apply garbage or silently skip acknowledged records.
func checkSegmentMagic(path string, data []byte) (v1 bool, err error) {
	if len(data) < len(walMagic) {
		return false, nil
	}
	switch string(data[:len(walMagic)]) {
	case walMagic:
		return false, nil
	case walMagicV1:
		return true, nil
	}
	return false, fmt.Errorf("store: %s: bad WAL magic %q", filepath.Base(path), data[:len(walMagic)])
}

// readSegment replays one segment file. A segment shorter than its header
// is treated as a crash during creation: zero records, goodOff at the end
// of whatever header prefix exists (the caller recreates it). A wrong
// magic is a hard error (checkSegmentMagic). After the header, records
// are read until the first bad frame (short frame header, implausible
// length, CRC mismatch, or an undecodable payload); everything from that
// frame on is reported as dropped, never applied.
func readSegment(path string) (segmentReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentReplay{}, err
	}
	rep, err := scanSegment(path, data)
	if err != nil {
		return rep, err
	}
	rep.f, err = os.Open(path)
	return rep, err
}

// scanSegment is readSegment over a segment image already in memory; path
// only names the segment in errors.
func scanSegment(path string, data []byte) (segmentReplay, error) {
	var rep segmentReplay
	var err error
	rep.size = int64(len(data))
	if rep.v1, err = checkSegmentMagic(path, data); err != nil {
		return rep, err
	}
	if len(data) < len(walMagic) {
		rep.droppedBytes = int64(len(data))
		return rep, nil
	}
	off := int64(len(walMagic))
	rep.goodOff = off
	for off < rep.size {
		payload, end, ok := nextFrame(data, off)
		if !ok {
			break // torn frame header, torn/corrupt length, corrupt payload
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break // intact bytes, unintelligible record
		}
		rep.records = append(rep.records, rec)
		rep.spans = append(rep.spans, frameSpan(data[off:], off))
		off = end
		rep.goodOff = off
	}
	rep.droppedBytes = rep.size - rep.goodOff
	return rep, nil
}

// segmentPaths lists the directory's WAL segments in generation order
// (the zero-padded hex generation in the name makes lexical order
// generation order).
func segmentPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// segmentName renders the segment filename for a generation.
func segmentName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", gen))
}

// segmentGen parses the generation back out of a segment path.
func segmentGen(path string) (uint64, error) {
	base := filepath.Base(path)
	var gen uint64
	if _, err := fmt.Sscanf(base, "wal-%016x.log", &gen); err != nil {
		return 0, fmt.Errorf("store: unparseable segment name %q: %v", base, err)
	}
	return gen, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
