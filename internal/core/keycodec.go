package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
)

// This file serializes match keys for the durable store's binary snapshot
// format: a recovered corpus entry can reinstall its inverted-index
// postings from decoded keys without re-parsing the model or re-deriving
// the keys (the expensive part of recovery). The encoding is deliberately
// dumb — uvarint-framed strings, no compression — because decode speed is
// the whole point; integrity is the snapshot codec's job (it CRCs the
// encoded blob).
//
// Decoded keys are only valid under the match options they were derived
// with: a different semantics level or synonym table canonicalizes names
// differently and would post stale keys. MatchKeyFingerprint condenses
// the key-relevant options into a comparable hash so the store can detect
// the mismatch and fall back to re-derivation.

// EncodeMatchKeys renders keys in a stable binary form: uvarint count,
// then per key the uvarint-length-prefixed component, kind and key
// strings followed by a uvarint tier.
func EncodeMatchKeys(keys []ComponentKey) []byte {
	n := binary.MaxVarintLen64
	for _, k := range keys {
		n += len(k.Component) + len(k.Kind) + len(k.Key) + 4*binary.MaxVarintLen64
	}
	buf := make([]byte, 0, n)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	appendStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, k := range keys {
		appendStr(k.Component)
		appendStr(k.Kind)
		appendStr(k.Key)
		buf = binary.AppendUvarint(buf, uint64(k.Tier))
	}
	return buf
}

// DecodeMatchKeys parses an EncodeMatchKeys blob. Any structural problem
// — truncation, over-long lengths, a non-minimal varint, a kind that is
// not a Kind constant, an out-of-range tier, trailing bytes — is an error;
// callers treat a failed decode as "no precompiled keys" and re-derive
// from the model. The decoded keys share strings the way MatchKeys' do: a
// kind is its Kind constant, and consecutive keys of one component share
// one Component string.
func DecodeMatchKeys(data []byte) ([]ComponentKey, error) {
	count, n := Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("core: match keys: bad count varint")
	}
	data = data[n:]
	if count > uint64(len(data)) {
		// Each key occupies at least one byte per field; a count larger
		// than the remaining bytes is a corrupt or truncated blob, not an
		// allocation request.
		return nil, fmt.Errorf("core: match keys: count %d exceeds blob size", count)
	}
	var err error
	field := func() []byte {
		l, n := Uvarint(data)
		if n <= 0 || uint64(len(data[n:])) < l {
			err = fmt.Errorf("core: match keys: truncated string")
			return nil
		}
		b := data[n : n+int(l)]
		data = data[n+int(l):]
		return b
	}
	keys := make([]ComponentKey, 0, count)
	for i := uint64(0); i < count; i++ {
		comp, kind, key := field(), field(), field()
		if err != nil {
			return nil, err
		}
		tier, n := Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("core: match keys: truncated tier")
		}
		data = data[n:]
		if tier > uint64(TierUnit) {
			return nil, fmt.Errorf("core: match keys: tier %d out of range", tier)
		}
		code, ok := KindCode(string(kind))
		if !ok {
			return nil, fmt.Errorf("core: match keys: unknown kind %q", kind)
		}
		k := ComponentKey{Component: string(comp), Kind: KindName(code), Key: string(key), Tier: KeyTier(tier)}
		if last := len(keys) - 1; last >= 0 && keys[last].Component == string(comp) {
			k.Component = keys[last].Component
		}
		keys = append(keys, k)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("core: match keys: %d trailing bytes", len(data))
	}
	return keys, nil
}

// Uvarint is binary.Uvarint restricted to minimal encodings: a value
// written with padding continuation bytes reports n <= 0, so every
// accepted varint re-encodes to the bytes it was read from.
func Uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// MatchKeyFingerprint hashes the parts of the options that key derivation
// depends on: the semantics level and the synonym table's equivalence
// classes (canonicalNameFor consults both; the index kind and logging
// cannot change a key). Two option sets with equal
// fingerprints derive identical keys for any model, so a snapshot's
// precompiled keys are reusable exactly when its recorded fingerprint
// matches the opening corpus's.
func (o Options) MatchKeyFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "semantics=%s\n", o.Semantics)
	if o.Synonyms != nil {
		// Classes is the table's semantic content — the partition that
		// Canonical answers from — in a deterministic order, so two tables
		// built from the same pairs in any order fingerprint equal.
		for _, class := range o.Synonyms.Classes() {
			fmt.Fprintf(h, "class=%s\n", strings.Join(class, "\t"))
		}
	}
	return h.Sum64()
}
