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
// Quick start — the context-aware Client is the primary API: configure it
// once with functional options, then pass a context.Context to every
// potentially long-running operation so it can be cancelled, deadlined, or
// tied to an HTTP request's lifetime:
//
//	cli := sbmlcompose.New() // heavy semantics, built-in synonyms
//	a, _ := cli.ParseModelFile("glycolysis.xml")
//	b, _ := cli.ParseModelFile("tca.xml")
//	res, err := cli.Compose(context.Background(), a, b)
//	if err != nil { ... }
//	_ = cli.WriteModelFile(res.Model, "merged.xml")
//
// Batch and streaming assembly run on the compiled-model engine: Compile
// precomputes a model's match keys and component indexes, Composer folds
// models one at a time into a persistent compiled accumulator whose indexes
// update in place, and ComposeAll is that fold over a batch:
//
//	res, err := cli.ComposeAll(ctx, models)
//
// Cancellation is honored at loop granularity everywhere — between
// composition stages, between integrator steps, inside stochastic event
// loops, between Monte Carlo runs — and a cancelled operation drains its
// worker pools and returns the context's error without exposing partial
// state. Uncancelled results are
// byte-identical to the legacy API's.
//
// Beyond composition the package exposes the paper's full evaluation
// toolchain: SBML-aware document diffing (§4.1.1), deterministic and
// stochastic simulation (§4.1.2), residual-sum-of-squares trace comparison
// (§4.1.3) and Monte Carlo temporal-logic model checking (§4.1.4), plus
// the Corpus/CorpusStore repository sessions (scored top-K matching over a
// model collection, durable across restarts) these build on.
//
// # Legacy package-level API
//
// The package-level functions that predate the Client (Compose,
// ComposeAll, SimulateODE, EstimateProbability, ...) remain fully
// supported: each is a thin context.Background() wrapper over a default
// client (or the corresponding internal entry point) and composes,
// simulates and ranks byte-identically to it. They are frozen rather than
// deprecated — existing callers need not migrate — but they cannot be
// cancelled and their *Options parameter cannot grow new behavior, so new
// code should prefer the Client.
package sbmlcompose

import (
	"context"
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

// Options configures composition; the zero value (and nil) mean heavy
// semantics with the built-in synonym table and a hash-map index.
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

// Compose merges model b into a copy of model a. A nil opts composes with
// heavy semantics and the built-in synonym table; inputs are never
// modified.
func Compose(a, b *Model, opts *Options) (*Result, error) {
	return core.Compose(a, b, resolveOptions(opts))
}

// ComposeAll batch-composes the models: an incremental left fold through
// one persistent compiled accumulator.
func ComposeAll(models []*Model, opts *Options) (*Result, error) {
	return core.ComposeAll(models, resolveOptions(opts))
}

// resolveOptions applies the facade defaults: nil means heavy semantics,
// and heavy semantics without a table gets the built-in synonyms. It is
// the one place this rule is written; New, NewCorpus and OpenCorpus apply
// it too.
func resolveOptions(opts *Options) Options {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if o.Synonyms == nil && o.Semantics == core.HeavySemantics {
		o.Synonyms = synonym.Builtin()
	}
	return o
}

// CompiledModel wraps a model with its precomputed match keys — normalized
// and synonym-expanded names, commutativity-canonical MathML patterns,
// reduced unit vectors — and prebuilt per-component-type indexes.
type CompiledModel = core.CompiledModel

// Compile precompiles a model for repeated or streaming composition. The
// input is cloned; a nil opts compiles for heavy semantics with the
// built-in synonym table.
func Compile(m *Model, opts *Options) (*CompiledModel, error) {
	return core.Compile(m, resolveOptions(opts))
}

// Composer assembles a model incrementally: each Add folds one more model
// into a persistent compiled accumulator whose indexes are updated in
// place — the streaming workflow the paper notes semanticSBML cannot offer.
type Composer = core.Composer

// NewComposer returns an empty streaming composer. A nil opts composes
// with heavy semantics and the built-in synonym table.
func NewComposer(opts *Options) *Composer {
	return core.NewComposer(resolveOptions(opts))
}

// NewComposerFrom seeds a streaming composer with an already-compiled
// accumulator; the composer takes ownership of cm.
func NewComposerFrom(cm *CompiledModel) *Composer {
	return core.NewComposerFrom(cm)
}

// ErrComposerPoisoned marks a Composer whose accumulator was abandoned
// mid-mutation by a cancelled AddContext: later Adds fail with an error
// wrapping it and Result/Model/Snapshot return nil. Match with errors.Is.
var ErrComposerPoisoned = core.ErrComposerPoisoned

// Match is a component correspondence between two models.
type Match = core.Match

// MatchModels computes which components of b denote the same entities as
// components of a — the matching problem of the paper's title — without
// producing a merged model. A nil opts matches with heavy semantics and the
// built-in synonym table.
func MatchModels(a, b *Model, opts *Options) ([]Match, error) {
	return core.MatchModels(a, b, resolveOptions(opts))
}

// Decompose splits a model into its weakly connected reaction subnetworks,
// each a standalone valid model carrying exactly the globals it references
// (the paper's future-work item 2: "XML graph decomposition or splitting").
// ComposeAll over the parts reconstructs the original network.
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

// SimulateODE integrates the model deterministically (RK4, or RKF45 when
// opts.Adaptive) and returns sampled species concentrations. It is a
// context.Background() wrapper over the default client — repeated calls
// on the same model hit the client's compiled-engine LRU; use
// Client.SimulateODE to make the run cancellable.
func SimulateODE(m *Model, opts SimOptions) (*Trace, error) {
	return defaultClient.SimulateODE(context.Background(), m, opts)
}

// SimulateSSA runs Gillespie's direct method over molecule counts; equal
// seeds reproduce exactly. A context.Background() wrapper over the
// default client, like SimulateODE.
func SimulateSSA(m *Model, opts SimOptions) (*Trace, error) {
	return defaultClient.SimulateSSA(context.Background(), m, opts)
}

// SimulateEnsembleSSA averages `runs` stochastic trajectories with
// consecutive seeds starting at opts.Seed, fanned out across
// opts.Workers workers; the mean trace is identical for every worker
// count. A context.Background() wrapper over the default client.
func SimulateEnsembleSSA(m *Model, runs int, opts SimOptions) (*Trace, error) {
	return defaultClient.SimulateEnsembleSSA(context.Background(), m, runs, opts)
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

// CheckProperty evaluates a temporal-logic formula (mc2 syntax, e.g.
// "G({A >= 0}) & F({B > 0.5})") over a deterministic simulation of the
// model. A context.Background() wrapper over the default client; use
// Client.CheckProperty to bound the simulation with a deadline.
func CheckProperty(m *Model, formula string, opts SimOptions) (bool, error) {
	return defaultClient.CheckProperty(context.Background(), m, formula, opts)
}

// EstimateProbability estimates the probability that a stochastic
// trajectory of the model satisfies the formula, over `runs` SSA
// simulations (the §4.1.4 Monte Carlo model-checking procedure). The runs
// execute on opts.Workers workers (default GOMAXPROCS) with an estimate
// identical to the serial order's; see ProbabilityEstimate for the
// confidence interval. A context.Background() wrapper over the default
// client; use Client.EstimateProbability to cancel or deadline the runs.
func EstimateProbability(m *Model, formula string, runs int, opts SimOptions) (float64, error) {
	est, err := ProbabilityEstimate(m, formula, runs, opts)
	if err != nil {
		return 0, err
	}
	return est.Probability, nil
}

// Estimate is a Monte Carlo probability estimate with its 95% Wilson score
// confidence interval.
type Estimate = mc2.Estimate

// ProbabilityEstimate is EstimateProbability with the full estimate: the
// satisfying fraction plus its confidence interval. A
// context.Background() wrapper over the default client.
func ProbabilityEstimate(m *Model, formula string, runs int, opts SimOptions) (Estimate, error) {
	return defaultClient.ProbabilityEstimate(context.Background(), m, formula, runs, opts)
}

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
