package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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
			keys := MatchKeys(m, opts)
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
	keys := MatchKeys(biomodels.Generate(biomodels.Config{
		ID: "corrupt", Nodes: 5, Edges: 6, Seed: 77, VocabularySize: 20, Decorate: true,
	}), Options{Synonyms: synonym.Builtin()})
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
	// A kind that is not a Kind constant must error: no build emits it,
	// and the corpus's one-byte kind has no value for it.
	if _, err := DecodeMatchKeys(unknownKindBlob); err == nil {
		t.Fatal("unknown kind not rejected")
	}
	// A padded varint (0 written as 0x80 0x00) must error: accepting it
	// would let a blob decode to keys that re-encode to other bytes.
	one := EncodeMatchKeys([]ComponentKey{{Component: "x", Kind: KindSpecies, Key: "s|id:x@c", Tier: TierExactID}})
	padded := append(one[:len(one)-1:len(one)-1], 0x80, 0x00)
	if _, err := DecodeMatchKeys(padded); err == nil {
		t.Fatal("padded tier varint not rejected")
	}
}

// TestDecodeMatchKeysSharesStrings pins what installed keys cost: a
// decoded key's kind is the Kind constant itself, and consecutive keys of
// one component share one Component string, as MatchKeys' keys do.
func TestDecodeMatchKeysSharesStrings(t *testing.T) {
	keys := MatchKeys(biomodels.Generate(biomodels.Config{
		ID: "share", Nodes: 6, Edges: 8, Seed: 78, VocabularySize: 20, Decorate: true,
	}), Options{Synonyms: synonym.Builtin()})
	got, err := DecodeMatchKeys(EncodeMatchKeys(keys))
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{KindCompartment, KindSpecies, KindFunction, KindUnitDef, KindReaction}
	runs := 0
	for i, k := range got {
		if !slices.ContainsFunc(kinds, func(c string) bool { return unsafe.StringData(c) == unsafe.StringData(k.Kind) }) {
			t.Fatalf("key %d: kind %q is not a Kind constant", i, k.Kind)
		}
		if i > 0 && k.Component == got[i-1].Component {
			runs++
			if unsafe.StringData(k.Component) != unsafe.StringData(got[i-1].Component) {
				t.Fatalf("keys %d and %d of component %q hold separate strings", i-1, i, k.Component)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no component emitted two consecutive keys; the check is vacuous")
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

// unknownKindBlob encodes one well-formed key whose kind no build emits.
var unknownKindBlob = EncodeMatchKeys([]ComponentKey{{Component: "x", Kind: "gene", Key: "s|id:x@c", Tier: TierExactID}})

// FuzzDecodeMatchKeys holds the match-keys codec — the bytes of sbsnap-2
// keys sections, keyed WAL records and replication chunks — to the
// decoder rule: arbitrary blobs never panic, an accepted blob stops being
// accepted once a byte is appended, every accepted key has a Kind
// constant for its kind, whatever decodes re-encodes to the same keys, and
// keys built from any input round-trip exactly. It is seeded with the
// encoded keys of generated models and with a key of an unknown kind.
func FuzzDecodeMatchKeys(f *testing.F) {
	for i := 0; i < 4; i++ {
		keys := MatchKeys(biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("fz%d", i),
			Nodes:          2 + 3*i,
			Edges:          1 + 4*i,
			Seed:           int64(600 + i),
			VocabularySize: 20,
			Decorate:       i%2 == 0,
		}), Options{Synonyms: synonym.Builtin()})
		blob := EncodeMatchKeys(keys)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add(EncodeMatchKeys(nil))
	f.Add(unknownKindBlob)
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
			if _, ok := KindCode(k.Kind); !ok {
				t.Fatalf("accepted unknown kind %q", k.Kind)
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
// fields taken two at a time as component and key, with the kind drawn
// from the key's length and the tier from the component's.
func keysFromBytes(b []byte) []ComponentKey {
	fields := bytes.Split(b, []byte{0})
	var keys []ComponentKey
	for i := 0; i+1 < len(fields); i += 2 {
		keys = append(keys, ComponentKey{
			Component: string(fields[i]),
			Kind:      KindName(uint8(len(fields[i+1]) % 5)),
			Key:       string(fields[i+1]),
			Tier:      KeyTier(len(fields[i]) % int(TierUnit+1)),
		})
	}
	return keys
}
