// Package sbmlcompose is a Go implementation of SBMLCompose, the automated
// biochemical-network composition system of Goodfellow, Wilson & Hunt,
// "Biochemical Network Matching and Composition" (EDBT 2010).
//
// The package merges SBML Level 2 models without user interaction: species
// are matched by identical or synonymous names, maths (kinetic laws, rules,
// function definitions, initial assignments) by commutativity-aware MathML
// patterns, unit definitions by reduction to known base units, and
// rate-constant conflicts are reconciled by mole↔molecule conversion before
// being reported. Conflicting duplicates resolve first-model-wins with a
// warning log.
//
// Quick start — every operation that is configured or can run long is a
// method of the context-aware Client: configure it once with functional
// options, then pass a context.Context to each call so it can be
// cancelled, deadlined, or tied to an HTTP request's lifetime. Operations
// that need neither (parsing, writing, validation, decomposition, diffing)
// are package-level functions:
//
//	cli := sbmlcompose.New() // heavy semantics, built-in synonyms
//	a, _ := sbmlcompose.ParseModelFile("glycolysis.xml")
//	b, _ := sbmlcompose.ParseModelFile("tca.xml")
//	res, err := cli.Compose(context.Background(), a, b)
//	if err != nil { ... }
//	_ = sbmlcompose.WriteModelFile(res.Model, "merged.xml")
//
// Batch and streaming assembly run on the compiled-model engine:
// Client.Compile precomputes a model's match keys and component indexes,
// a Composer (Client.NewComposer) folds models one at a time into a
// persistent compiled accumulator whose indexes update in place, and
// ComposeAll is that fold over a batch:
//
//	res, err := cli.ComposeAll(ctx, models)
//
// Cancellation is honored at loop granularity everywhere — between
// composition stages, between integrator steps, inside stochastic event
// loops, between Monte Carlo runs — and a cancelled operation drains its
// worker pools and returns the context's error without exposing partial
// state.
//
// Beyond composition the package exposes the paper's full evaluation
// toolchain: SBML-aware document diffing (§4.1.1), deterministic and
// stochastic simulation (§4.1.2), residual-sum-of-squares trace comparison
// (§4.1.3) and Monte Carlo temporal-logic model checking (§4.1.4), plus
// the Corpus/CorpusStore repository sessions (scored top-K matching over a
// model collection, durable across restarts) these build on.
package sbmlcompose

import (
	"fmt"
	"io"
	"os"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/synonym"
	"sbmlcompose/internal/trace"
	"sbmlcompose/internal/treediff"
	"sbmlcompose/internal/xmltree"
)

// Model is an SBML Level 2 model; see the sbml package for the component
// structure.
type Model = sbml.Model

// Document wraps a model with its SBML level/version header.
type Document = sbml.Document

// Options configures composition; the zero value means heavy semantics
// with the built-in synonym table and a hash-map index.
type Options = core.Options

// Result is the outcome of a composition: the merged model, warnings, id
// mappings and statistics.
type Result = core.Result

// Warning is one conflict decision taken during composition.
type Warning = core.Warning

// SynonymTable matches alternative names for the same biological entity.
type SynonymTable = synonym.Table

// Trace is a simulation time series.
type Trace = trace.Trace

// SimOptions configures simulation runs.
type SimOptions = sim.Options

// Difference is one discrepancy reported by Diff.
type Difference = treediff.Difference

// Semantics levels for Options.Semantics (heavy is the paper's full
// treatment; light and none implement the §5 future-work comparison).
const (
	HeavySemantics = core.HeavySemantics
	LightSemantics = core.LightSemantics
	NoSemantics    = core.NoSemantics
)

// ParseModel reads an SBML document from r.
func ParseModel(r io.Reader) (*Model, error) {
	doc, err := sbml.Parse(r)
	if err != nil {
		return nil, err
	}
	return doc.Model, nil
}

// ParseModelString parses an in-memory SBML document.
func ParseModelString(s string) (*Model, error) {
	doc, err := sbml.ParseString(s)
	if err != nil {
		return nil, err
	}
	return doc.Model, nil
}

// ParseModelFile reads an SBML file.
func ParseModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ParseModel(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteModel serializes the model as an SBML Level 2 document.
func WriteModel(m *Model, w io.Writer) error {
	_, err := sbml.WrapModel(m).WriteTo(w)
	return err
}

// WriteModelFile writes the model to a file.
func WriteModelFile(m *Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteModel(m, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ModelToString renders the model as SBML text.
func ModelToString(m *Model) string {
	return sbml.WrapModel(m).String()
}

// Validate checks the model's structural and referential integrity,
// returning nil when no error-severity issue exists.
func Validate(m *Model) error {
	return sbml.Check(m)
}

// BuiltinSynonyms returns the seeded biological synonym table.
func BuiltinSynonyms() *SynonymTable {
	return synonym.Builtin()
}

// NewSynonymTable returns an empty synonym table.
func NewSynonymTable() *SynonymTable {
	return synonym.NewTable()
}

// resolveOptions applies the facade default: heavy semantics without a
// table gets the built-in synonyms. It is the one place this rule is
// written, and New, NewCorpus and OpenCorpus apply it.
func resolveOptions(o Options) Options {
	if o.Synonyms == nil && o.Semantics == core.HeavySemantics {
		o.Synonyms = synonym.Builtin()
	}
	return o
}

// CompiledModel wraps a model with its precomputed match keys — normalized
// and synonym-expanded names, commutativity-canonical MathML patterns,
// reduced unit vectors — and prebuilt per-component-type indexes.
type CompiledModel = core.CompiledModel

// Composer assembles a model incrementally: each Add folds one more model
// into a persistent compiled accumulator whose indexes are updated in
// place — the streaming workflow the paper notes semanticSBML cannot offer.
type Composer = core.Composer

// NewComposerFrom seeds a streaming composer with an already-compiled
// accumulator; the composer takes ownership of cm.
func NewComposerFrom(cm *CompiledModel) *Composer {
	return core.NewComposerFrom(cm)
}

// ErrComposerPoisoned marks a Composer whose accumulator was abandoned
// mid-mutation by a cancelled Add: later Adds fail with an error
// wrapping it and Result/Model/Snapshot return nil. Match with errors.Is.
var ErrComposerPoisoned = core.ErrComposerPoisoned

// Match is a component correspondence between two models.
type Match = core.Match

// Decompose splits a model into its weakly connected reaction subnetworks,
// each a standalone valid model carrying exactly the globals it references
// (the paper's future-work item 2: "XML graph decomposition or splitting").
// Client.ComposeAll over the parts reconstructs the original network.
func Decompose(m *Model) ([]*Model, error) {
	return core.Decompose(m)
}

// Diff structurally compares two models with SBML order semantics
// (listOf* containers are unordered, maths and rules are ordered) and
// returns every difference; nil means semantically identical documents.
func Diff(a, b *Model) []Difference {
	na := sbml.WrapModel(a).ToXML()
	nb := sbml.WrapModel(b).ToXML()
	return treediff.CompareSBML(na, nb)
}

// EditDistance returns the Zhang–Shasha tree edit distance between the two
// models' SBML documents; a coarse whole-document similarity measure.
func EditDistance(a, b *Model) int {
	return treediff.EditDistance(sbml.WrapModel(a).ToXML(), sbml.WrapModel(b).ToXML())
}

// RSS computes per-species residual sums of squares between two traces
// (the §4.1.3 equivalence test); nil species selects all shared columns.
func RSS(a, b *Trace, species []string) (map[string]float64, error) {
	return trace.RSS(a, b, species)
}

// TracesEquivalent reports whether every shared species' RSS is below tol.
func TracesEquivalent(a, b *Trace, tol float64) (bool, error) {
	return trace.Equivalent(a, b, tol)
}

// Estimate is a Monte Carlo probability estimate with its 95% Wilson score
// confidence interval.
type Estimate = mc2.Estimate

// CanonicalXML returns a canonical single-line serialization of the model's
// SBML document, usable as an equality key.
func CanonicalXML(m *Model) string {
	return sbml.WrapModel(m).ToXML().Canonical()
}

// ParseXMLTree exposes the underlying XML DOM parse, for tools that need
// document-level access (e.g. diff reports over raw files).
func ParseXMLTree(r io.Reader) (*xmltree.Node, error) {
	return xmltree.Parse(r)
}
