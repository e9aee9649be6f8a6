package sbmlcompose

import (
	corpuspkg "sbmlcompose/internal/corpus"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/sim"
)

// This file is the facade over the repository subsystem (internal/corpus):
// a concurrent, sharded in-memory model repository with scored top-K
// matching — the paper's motivating scenario of querying a curated model
// collection for composition partners — plus the engine-holding simulation
// path that lets repeated requests against the same model pay compilation
// once.

// Corpus is a sharded in-memory model repository. Models are compiled on
// Add and their match keys (canonical-synonym ids, MathML patterns, unit
// vectors) posted into inverted indexes, so Search retrieves candidates by
// shared keys instead of scanning the whole corpus pairwise; candidates
// are scored by greedy maximum-weight assignment over tiered shared-key
// evidence and ranked top-K. All methods are safe for concurrent use, and
// Search results are identical at any shard or worker count.
type Corpus = corpuspkg.Corpus

// CorpusOptions configures a Corpus: shard count and the match options
// every stored model is compiled under.
type CorpusOptions = corpuspkg.Options

// SearchOptions configures one Corpus.Search call: TopK, the per-evidence
// tier cutoff and the per-hit minimum score.
type SearchOptions = corpuspkg.SearchOptions

// Hit is one ranked search result with per-component match evidence.
type Hit = corpuspkg.Hit

// CompiledQuery is a query model's derived match state — its tiered
// component keys plus the matchable-component denominator — compiled once
// with Corpus.CompileQuery and reusable across Corpus.SearchCompiled /
// SearchCompiledContext calls. Rankings are identical to Search on the
// original model; only the per-call key derivation is skipped.
type CompiledQuery = corpuspkg.CompiledQuery

// MatchEvidence is one component correspondence supporting a Hit.
type MatchEvidence = corpuspkg.Evidence

// Sentinel corpus errors, matchable with errors.Is on anything a Corpus
// method returns.
var (
	// ErrModelNotFound wraps every "no such model" failure.
	ErrModelNotFound = corpuspkg.ErrNotFound
	// ErrDuplicateModel wraps Corpus.Add failures on an id already stored.
	ErrDuplicateModel = corpuspkg.ErrDuplicate
	// ErrPersistFailed wraps corpus mutations that failed in the durable
	// store (WAL append, snapshot write) rather than on the model itself —
	// a server-side fault, not a bad request.
	ErrPersistFailed = corpuspkg.ErrPersist
)

// NewCorpus returns an empty model repository. A nil opts (or zero-valued
// match options) means heavy semantics with the built-in synonym table and
// 4 shards. Search scores candidates on one worker per proc (GOMAXPROCS).
func NewCorpus(opts *CorpusOptions) *Corpus {
	o := CorpusOptions{}
	if opts != nil {
		o = *opts
	}
	o.Match = resolveOptions(&o.Match)
	return corpuspkg.New(o)
}

// Engine is a compiled simulation engine: the model's symbols resolved to
// dense slots, every expression compiled to a stack program, stoichiometry
// precomputed. An Engine is immutable and safe for concurrent use; compile
// once and reuse it across runs to amortize compilation (SimulateODE and
// SimulateSSA recompile per call, which is wasteful for repeated requests
// against the same model — the corpus caches one Engine per stored model
// for exactly this reason).
type Engine = sim.Engine

// CompileEngine compiles the model for repeated simulation. The returned
// engine's ODE, SSA and EnsembleSSA methods accept the same SimOptions as
// the facade one-shots and produce bitwise-identical traces.
func CompileEngine(m *Model) (*Engine, error) {
	return sim.Compile(m)
}

// Formula is a parsed temporal-logic property (mc2 syntax).
type Formula = mc2.Formula

// ParseFormula parses an mc2 temporal-logic formula, e.g.
// "G({A >= 0}) & F({B > 0.5})". Parse once and reuse the formula across
// traces.
func ParseFormula(src string) (Formula, error) {
	return mc2.Parse(src)
}

// CheckTrace evaluates a parsed formula over a simulation trace. Together
// with CompileEngine this is the engine-holding form of CheckProperty:
// compile the model once, simulate per request, check per request.
func CheckTrace(tr *Trace, f Formula) (bool, error) {
	return mc2.Check(tr, f)
}
