package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/sbml"
)

// These fuzz targets hold the WAL and snapshot decoders — which recovery
// runs over on-disk bytes and followers run over network bytes — to the
// ROADMAP's decoder rule: arbitrary input never panics, and nothing beyond
// a verified prefix is ever accepted. The two WAL targets are seeded from
// the crash harness's workloads, written once as keyed (op 3) records and
// once as v1-era op-1 records.

// crashSeedRecords renders a crash-harness workload as the records a
// store would log for it: keyed adds when keyed is set, else op-1 adds.
func crashSeedRecords(tb testing.TB, seed int64, steps int, keyed bool) []walRecord {
	tb.Helper()
	match := testOptions().Corpus.Match
	var recs []walRecord
	for i, step := range makeWorkload(tb, seed, steps, seed%2 == 0) {
		rec := walRecord{op: opRemove, seq: uint64(i + 1), id: step.id}
		if !step.remove {
			rec = walRecord{op: opAdd, seq: uint64(i + 1), id: step.m.ID, sbml: []byte(sbml.WrapModel(step.m).String())}
			if keyed {
				rec.op, rec.fingerprint, rec.keys = opAddKeys, match.MatchKeyFingerprint(), core.EncodeMatchKeys(core.MatchKeys(step.m, match))
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// segmentImage renders records as a segment file image behind magic.
func segmentImage(magic string, recs []walRecord) []byte {
	img := []byte(magic)
	for _, rec := range recs {
		img = append(img, appendFrame(nil, rec)...)
	}
	return img
}

func FuzzDecodeRecord(f *testing.F) {
	for _, keyed := range []bool{true, false} {
		for _, rec := range crashSeedRecords(f, 1, 8, keyed) {
			payload := encodeRecord(rec)
			f.Add(payload)
			f.Add(payload[:len(payload)/2])
		}
	}
	// A keyed record whose keys blob does not decode is still a valid
	// record: the blob only fails the trust rule later.
	f.Add(encodeRecord(walRecord{op: opAddKeys, seq: 9, id: "m", sbml: []byte("<sbml/>"), fingerprint: 7, keys: []byte{0xff}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		switch rec.op {
		case opAdd, opRemove, opAddKeys:
		default:
			t.Fatalf("accepted unknown op %d", rec.op)
		}
		again, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v (%+v)", err, rec)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("decode(encode(rec)) != rec:\n got %+v\nwant %+v", again, rec)
		}
	})
}

func FuzzReadSegment(f *testing.F) {
	// Short workloads: the fuzzer minimizes every new interesting input,
	// and that costs time in proportion to its size.
	for _, seed := range []int64{1, 2} {
		keyed := segmentImage(walMagic, crashSeedRecords(f, seed, 3, true))
		f.Add(keyed)
		f.Add(segmentImage(walMagicV1, crashSeedRecords(f, seed, 3, false)))
		f.Add(keyed[:len(keyed)-3]) // torn final frame
		flipped := bytes.Clone(keyed)
		flipped[len(flipped)/2] ^= 0x20 // CRC path
		f.Add(flipped)
	}
	f.Add([]byte("sbwal"))    // mid-creation
	f.Add([]byte("notawal!")) // bad magic
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := scanSegment("fuzz.log", data)
		if err != nil {
			if len(data) < len(walMagic) || string(data[:len(walMagic)]) == walMagic || string(data[:len(walMagic)]) == walMagicV1 {
				t.Fatalf("rejected a segment with an acceptable header: %v", err)
			}
			return
		}
		if len(data) < len(walMagic) {
			if rep.goodOff != 0 || len(rep.records) != 0 || rep.droppedBytes != int64(len(data)) {
				t.Fatalf("mid-creation segment replayed as %+v", rep)
			}
			return
		}
		// Walk the frames by their length headers alone: goodOff must sit
		// on a boundary, every frame before it must be intact and decode
		// to the record returned for it, and the frame at goodOff must not.
		off := int64(len(walMagic))
		for i, rec := range rep.records {
			if off+walFrameLen > rep.goodOff {
				t.Fatalf("record %d starts at %d, past goodOff %d", i, off, rep.goodOff)
			}
			end := off + walFrameLen + int64(binary.LittleEndian.Uint32(data[off:off+4]))
			payload, next, ok := nextFrame(data, off)
			if !ok || next != end {
				t.Fatalf("record %d: frame at %d not intact", i, off)
			}
			want, err := decodeRecord(payload)
			if err != nil || !reflect.DeepEqual(want, rec) {
				t.Fatalf("record %d: returned %+v, frame decodes to %+v (%v)", i, rec, want, err)
			}
			off = end
		}
		if off != rep.goodOff {
			t.Fatalf("goodOff %d is not the boundary %d after %d records", rep.goodOff, off, len(rep.records))
		}
		if rep.droppedBytes != int64(len(data))-rep.goodOff {
			t.Fatalf("droppedBytes %d, want %d", rep.droppedBytes, int64(len(data))-rep.goodOff)
		}
		if rep.goodOff < int64(len(data)) {
			if payload, _, ok := nextFrame(data, rep.goodOff); ok {
				if _, err := decodeRecord(payload); err == nil {
					t.Fatalf("intact frame at goodOff %d was dropped", rep.goodOff)
				}
			}
		}
		if rep.v1 != (string(data[:len(walMagic)]) == walMagicV1) {
			t.Fatalf("v1 = %v for header %q", rep.v1, data[:len(walMagic)])
		}
	})
}

// FuzzDecodeSnapshot holds the sbsnap-2 decoder — which Open runs over
// corpus.snap and a resyncing follower over the primary's image — to the
// decoder rule: arbitrary input never panics; every accepted entry's core
// span lies inside the image and reads back, through the read path of the
// corpus's locators, as the entry's id and bytes; and an accepted image
// whose keys sections all verified re-encodes byte-identically. It is
// seeded with images of generated models.
func FuzzDecodeSnapshot(f *testing.F) {
	match := testOptions().Corpus.Match
	for n := 0; n < 3; n++ {
		var blobs []corpus.ModelBlob
		for i := 0; i < n; i++ {
			m := biomodels.Generate(biomodels.Config{
				ID: fmt.Sprintf("fz%d", i), Nodes: 2 + 2*i, Edges: 1 + 2*i,
				Seed: int64(800 + i), VocabularySize: 20, Decorate: i%2 == 0,
			})
			blobs = append(blobs, corpus.ModelBlob{ID: m.ID, Doc: corpus.Bytes(sbml.WrapModel(m).String()), Keys: core.MatchKeys(m, match)})
		}
		image, _, err := encodeSnapshotV2(uint64(7*n), match.MatchKeyFingerprint(), blobs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(image)
		f.Add(image[:len(image)-5])
	}
	f.Add([]byte(snapMagicV1 + "\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := decodeSnapshotV2(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("rejection does not wrap ErrCorruptSnapshot: %v", err)
			}
			return
		}
		blobs := make([]corpus.ModelBlob, len(sf.entries))
		allKeys := true
		for i, e := range sf.entries {
			if e.core.off < 0 || e.core.off+int64(e.core.n) > int64(len(data)) {
				t.Fatalf("entry %d: span %+v outside a %d-byte image", i, e.core, len(data))
			}
			got, err := readSpan(bytes.NewReader(data), e.core, true)
			if err != nil {
				t.Fatalf("entry %d: accepted span does not read back: %v", i, err)
			}
			if !bytes.Equal(got, e.sbml) {
				t.Fatalf("entry %d: span reads back other bytes than the entry's", i)
			}
			blobs[i] = corpus.ModelBlob{ID: e.id, Doc: corpus.Bytes(e.sbml), Keys: e.keys}
			allKeys = allKeys && e.keysOK
		}
		if !allKeys {
			return
		}
		again, spans, err := encodeSnapshotV2(sf.lastSeq, sf.fingerprint, blobs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted image of %d bytes re-encodes to %d different bytes", len(data), len(again))
		}
		for i, sp := range spans {
			if sp != sf.entries[i].core {
				t.Fatalf("entry %d: encoder span %+v, decoder span %+v", i, sp, sf.entries[i].core)
			}
		}
	})
}

// FuzzVerifyChunk holds the follower's chunk verifier — which runs over
// network bytes before anything is applied — to the decoder rule:
// arbitrary input never panics, and the accepted records are a verified
// prefix: their seqs strictly increase above from, and re-framed they are
// byte-for-byte the chunk's first off bytes. It is seeded with real
// replication-feed chunks.
func FuzzVerifyChunk(f *testing.F) {
	opts := testOptions()
	opts.Fsync = FsyncNever
	s, err := Open(f.TempDir(), opts)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Corpus().Add(testModel(i)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.Corpus().Remove(testModel(1).ID); err != nil {
		f.Fatal(err)
	}
	for _, from := range []uint64{0, 2} {
		tb, err := s.ReadTail(context.Background(), from, 0, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tb.Frames, from)
		f.Add(tb.Frames[:len(tb.Frames)-3], from) // cut mid-frame
		f.Add(tb.Frames, tb.LastSeq)              // every seq regressed
		flipped := bytes.Clone(tb.Frames)
		flipped[len(flipped)/2] ^= 0x20 // CRC path
		f.Add(flipped, from)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, frames []byte, from uint64) {
		recs, off, err := verifyChunk(frames, from)
		if off < 0 || off > int64(len(frames)) || (err == nil) != (off == int64(len(frames))) {
			t.Fatalf("verified prefix ends at %d of %d bytes with err = %v", off, len(frames), err)
		}
		var again []byte
		prev := from
		for i, rec := range recs {
			if rec.seq <= prev {
				t.Fatalf("record %d: seq %d not above %d", i, rec.seq, prev)
			}
			prev = rec.seq
			again = appendFrame(again, rec)
		}
		if !bytes.Equal(again, frames[:off]) {
			t.Fatalf("%d accepted records re-frame to %d bytes that differ from the %d-byte verified prefix", len(recs), len(again), off)
		}
	})
}
