package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/synonym"
)

// TestMatchKeyCodecRoundTrip is the codec property test over randomized
// models: decode(encode(keys)) must reproduce the derived keys exactly,
// under every semantics level, so a recovered corpus posts the same
// inverted-index entries as a freshly compiled one.
func TestMatchKeyCodecRoundTrip(t *testing.T) {
	for _, sem := range []SemanticsLevel{HeavySemantics, LightSemantics, NoSemantics} {
		opts := Options{Semantics: sem}
		if sem == HeavySemantics {
			opts.Synonyms = synonym.Builtin()
		}
		for i := 0; i < 25; i++ {
			m := biomodels.Generate(biomodels.Config{
				ID:             fmt.Sprintf("rt%02d", i),
				Nodes:          2 + i%9,
				Edges:          1 + (i*3)%11,
				Seed:           int64(9000 + 31*i),
				VocabularySize: 15 + i,
				Decorate:       i%2 == 0,
			})
			keys, err := MatchKeysFor(m, opts)
			if err != nil {
				t.Fatalf("sem=%v model %d: %v", sem, i, err)
			}
			got, err := DecodeMatchKeys(EncodeMatchKeys(keys))
			if err != nil {
				t.Fatalf("sem=%v model %d: decode: %v", sem, i, err)
			}
			if len(keys) == 0 {
				if len(got) != 0 {
					t.Fatalf("sem=%v model %d: decoded %d keys from empty set", sem, i, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, keys) {
				t.Fatalf("sem=%v model %d: keys diverge after round trip:\n got %+v\nwant %+v", sem, i, got, keys)
			}
		}
	}
}

func TestMatchKeyCodecRejectsCorruption(t *testing.T) {
	keys, err := MatchKeysFor(biomodels.Generate(biomodels.Config{
		ID: "corrupt", Nodes: 5, Edges: 6, Seed: 77, VocabularySize: 20, Decorate: true,
	}), Options{Synonyms: synonym.Builtin()})
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeMatchKeys(keys)
	// Every truncation point must error, never decode a short key set
	// silently (the count prefix pins the expected cardinality).
	for cut := 0; cut < len(blob); cut++ {
		if got, err := DecodeMatchKeys(blob[:cut]); err == nil && len(got) == len(keys) {
			t.Fatalf("truncation at %d decoded a full key set", cut)
		}
	}
	if _, err := DecodeMatchKeys(append(append([]byte(nil), blob...), 0x01)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	// An out-of-range tier must error rather than post a garbage weight.
	bad := EncodeMatchKeys([]ComponentKey{{Component: "x", Kind: "species", Key: "s|id:x@c", Tier: KeyTier(9)}})
	if _, err := DecodeMatchKeys(bad); err == nil {
		t.Fatal("out-of-range tier not rejected")
	}
}

// TestMatchKeyFingerprint pins the fingerprint's sensitivity: equal
// options agree regardless of synonym insertion order; changing the
// semantics level or the table's classes changes the hash.
func TestMatchKeyFingerprint(t *testing.T) {
	a, b := synonym.NewTable(), synonym.NewTable()
	a.Add("ATP", "adenosine triphosphate")
	a.Add("glc", "glucose")
	b.Add("glc", "glucose")
	b.Add("adenosine triphosphate", "ATP")
	fa := Options{Synonyms: a}.MatchKeyFingerprint()
	if fb := (Options{Synonyms: b}).MatchKeyFingerprint(); fa != fb {
		t.Fatalf("insertion order changed fingerprint: %x vs %x", fa, fb)
	}
	if f := (Options{Semantics: LightSemantics, Synonyms: a}).MatchKeyFingerprint(); f == fa {
		t.Fatal("semantics level not reflected in fingerprint")
	}
	a.Add("H2O", "water")
	if f := (Options{Synonyms: a}).MatchKeyFingerprint(); f == fa {
		t.Fatal("added synonym class not reflected in fingerprint")
	}
	if f, g := (Options{}).MatchKeyFingerprint(), (Options{Synonyms: synonym.NewTable()}).MatchKeyFingerprint(); f != g {
		t.Fatalf("nil table and empty table disagree: %x vs %x", f, g)
	}
}

// FuzzDecodeMatchKeys holds the match-keys codec — the bytes of sbsnap-2
// keys sections, keyed WAL records and replication chunks — to the
// decoder rule: arbitrary blobs never panic, an accepted blob stops being
// accepted once a byte is appended, whatever decodes re-encodes to the
// same keys, and keys built from any input round-trip exactly. It is
// seeded with the encoded keys of generated models.
func FuzzDecodeMatchKeys(f *testing.F) {
	for i := 0; i < 4; i++ {
		keys, err := MatchKeysFor(biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("fz%d", i),
			Nodes:          2 + 3*i,
			Edges:          1 + 4*i,
			Seed:           int64(600 + i),
			VocabularySize: 20,
			Decorate:       i%2 == 0,
		}), Options{Synonyms: synonym.Builtin()})
		if err != nil {
			f.Fatal(err)
		}
		blob := EncodeMatchKeys(keys)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add(EncodeMatchKeys(nil))
	f.Fuzz(func(t *testing.T, blob []byte) {
		built := keysFromBytes(blob)
		again, err := DecodeMatchKeys(EncodeMatchKeys(built))
		if err != nil {
			t.Fatalf("encoded keys do not decode: %v (%+v)", err, built)
		}
		if !slices.Equal(again, built) {
			t.Fatalf("decode(encode(keys)) != keys:\n got %+v\nwant %+v", again, built)
		}

		keys, err := DecodeMatchKeys(blob)
		if err != nil {
			return
		}
		if _, err := DecodeMatchKeys(append(blob[:len(blob):len(blob)], 0)); err == nil {
			t.Fatal("an accepted blob still decodes with a trailing byte appended")
		}
		for _, k := range keys {
			if k.Tier < TierExactID || k.Tier > TierUnit {
				t.Fatalf("accepted out-of-range tier %d", k.Tier)
			}
		}
		enc := EncodeMatchKeys(keys)
		if len(enc) > len(blob) {
			t.Fatalf("accepted blob of %d bytes re-encodes to %d", len(blob), len(enc))
		}
		again, err = DecodeMatchKeys(enc)
		if err != nil {
			t.Fatalf("re-encoded keys do not decode: %v (%+v)", err, keys)
		}
		if !slices.Equal(again, keys) {
			t.Fatalf("accepted keys change across a round trip:\n got %+v\nwant %+v", again, keys)
		}
	})
}

// keysFromBytes builds a key set from arbitrary bytes: NUL-separated
// fields taken three at a time as component, kind and key, with the tier
// drawn from the component's length.
func keysFromBytes(b []byte) []ComponentKey {
	fields := bytes.Split(b, []byte{0})
	var keys []ComponentKey
	for i := 0; i+2 < len(fields); i += 3 {
		keys = append(keys, ComponentKey{
			Component: string(fields[i]),
			Kind:      string(fields[i+1]),
			Key:       string(fields[i+2]),
			Tier:      KeyTier(len(fields[i]) % int(TierUnit+1)),
		})
	}
	return keys
}
