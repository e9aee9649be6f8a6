package core

import "sbmlcompose/internal/sbml"

// This file exports the compiled-model match keys to repository-scale
// consumers. The pairwise composer derives a key per component (canonical
// synonym ids, Figure 7 MathML patterns, reduced unit vectors) and looks it
// up in the other model's indexes; a model repository inverts that
// relationship, posting every model's keys into corpus-wide indexes so a
// query retrieves candidates by key instead of scanning all models
// pairwise. MatchKeys derives keys with the very functions the composer
// uses (speciesKeysFor, mathKeyFor, unitKey, reactionStructureKey), so
// corpus retrieval and pairwise composition provably agree on what matches.

// KeyTier ranks how much semantic weight a shared match key carries, the
// score-matrix tiers of repository matching: an exact id is the strongest
// evidence two components denote the same entity, a synonym-canonical name
// slightly weaker, a shared math pattern weaker still, and dimensional
// (unit-vector) compatibility the weakest.
type KeyTier int

const (
	// TierExactID: identical component id (or, for reactions, identical
	// reactant/product/modifier structure).
	TierExactID KeyTier = iota
	// TierSynonym: names or ids that canonicalize to the same synonym-table
	// class (or normalize equal under light semantics).
	TierSynonym
	// TierMath: identical commutativity-canonical MathML pattern.
	TierMath
	// TierUnit: identical reduced unit vector.
	TierUnit
)

// String names the tier for reports and serving payloads.
func (t KeyTier) String() string {
	switch t {
	case TierExactID:
		return "exact-id"
	case TierSynonym:
		return "synonym"
	case TierMath:
		return "math-pattern"
	case TierUnit:
		return "unit-compatible"
	default:
		return "unknown"
	}
}

// Weight is the tier's score-matrix contribution. Tiers are strictly
// ordered so a single exact-id correspondence outranks any lower-tier one,
// mirroring the exact > synonym > math > unit cascade the composer's
// type-specific equality implements.
func (t KeyTier) Weight() float64 {
	switch t {
	case TierExactID:
		return 4
	case TierSynonym:
		return 3
	case TierMath:
		return 2
	case TierUnit:
		return 1
	default:
		return 0
	}
}

// The component kinds, the values of ComponentKey.Kind. MatchKeys emits
// only these, and DecodeMatchKeys accepts only these and hands back these
// very strings, so decoded keys share five kind strings instead of holding
// one copy each.
const (
	KindCompartment = "compartment"
	KindSpecies     = "species"
	KindFunction    = "function"
	KindUnitDef     = "unitdef"
	KindReaction    = "reaction"
)

// kindNames lists the component kinds by KindCode.
var kindNames = [...]string{KindCompartment, KindSpecies, KindFunction, KindUnitDef, KindReaction}

// KindName returns the Kind constant whose KindCode is code, and "" for a
// code that names no kind.
func KindName(code uint8) string {
	if int(code) < len(kindNames) {
		return kindNames[code]
	}
	return ""
}

// KindCode returns a one-byte name for kind, and false for a string that
// is not a Kind constant. KindName inverts it.
func KindCode(kind string) (uint8, bool) {
	for code, name := range kindNames {
		if kind == name {
			return uint8(code), true
		}
	}
	return 0, false
}

// ComponentKey is one match key of one model component, namespaced by
// component kind so a species name never collides with a math pattern in a
// shared inverted index.
type ComponentKey struct {
	// Component is the component's id in its model (constraints, which have
	// no id, are keyed by a positional label).
	Component string
	// Kind is the component family, one of the Kind constants.
	Kind string
	// Key is the kind-prefixed match key.
	Key string
	// Tier ranks the key's evidence strength.
	Tier KeyTier
}

// MatchKeys returns every match key of every matchable component of m
// under opts, in deterministic model order. Key derivation is shared with
// the composer's index maintenance, so two models share a key here exactly
// when the pairwise composer would identify the corresponding components
// through an index hit of that tier. It reads m and opts only: no model is
// compiled or cloned.
func MatchKeys(m *sbml.Model, opts Options) []ComponentKey {
	keys := make([]ComponentKey, 0, 3*len(m.Species)+2*len(m.Reactions)+len(m.FunctionDefinitions)+len(m.UnitDefinitions)+2*len(m.Compartments))
	for _, comp := range m.Compartments {
		keys = append(keys, ComponentKey{comp.ID, KindCompartment, "c|id:" + comp.ID, TierExactID})
		if comp.Name != "" && opts.Semantics != NoSemantics {
			keys = append(keys, ComponentKey{comp.ID, KindCompartment, "c|n:" + canonicalNameFor(opts, comp.Name), TierSynonym})
		}
	}
	for _, s := range m.Species {
		// speciesKeysFor returns the exact id key first, then the
		// synonym-canonical name and id-as-name keys.
		for i, k := range speciesKeysFor(opts, s) {
			tier := TierSynonym
			if i == 0 {
				tier = TierExactID
			}
			keys = append(keys, ComponentKey{s.ID, KindSpecies, "s|" + k, tier})
		}
	}
	for _, f := range m.FunctionDefinitions {
		keys = append(keys, ComponentKey{f.ID, KindFunction, "f|" + mathKeyFor(opts, f.Math), TierMath})
	}
	for _, u := range m.UnitDefinitions {
		keys = append(keys, ComponentKey{u.ID, KindUnitDef, "u|" + unitKey(u), TierUnit})
	}
	for _, r := range m.Reactions {
		keys = append(keys, ComponentKey{r.ID, KindReaction, "r|st:" + reactionStructureKey(r), TierExactID})
		if r.KineticLaw != nil && r.KineticLaw.Math != nil {
			keys = append(keys, ComponentKey{r.ID, KindReaction, "r|kl:" + mathKeyFor(opts, r.KineticLaw.Math), TierMath})
		}
	}
	return keys
}

// MatchableComponents counts the components MatchKeys emits keys for — the
// denominator of a repository hit's coverage ratio.
func MatchableComponents(m *sbml.Model) int {
	return len(m.Compartments) + len(m.Species) + len(m.FunctionDefinitions) + len(m.UnitDefinitions) + len(m.Reactions)
}
