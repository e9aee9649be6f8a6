package sbmlcompose

// This file is the context-aware client facade — the package's primary
// API since the v1 redesign. A Client bundles the composition/matching
// configuration (functional options over the former mutable *Options
// struct) with a small LRU of compiled simulation engines, and every
// potentially long-running method takes a context.Context first so callers
// can cancel, deadline, or tie work to an HTTP request's lifetime:
//
//	cli := sbmlcompose.New(
//		sbmlcompose.WithSynonyms(table),
//		sbmlcompose.WithLog(os.Stderr),
//	)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, err := cli.ComposeAll(ctx, models)
//
// Cancellation is honored at loop granularity end-to-end: composition
// checks between component families, simulation between integrator steps
// and stochastic events, probability estimation between and inside runs.
// A cancelled call drains any worker pool it started, returns the
// context's error, and never exposes a half-mutated result. An uncancelled
// context always produces results byte-identical to the legacy
// package-level functions, which remain supported as thin
// context.Background() wrappers over a default client.

import (
	"context"
	"fmt"
	"io"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/lru"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/sim"
)

// SemanticsLevel selects how much meaning the matcher uses; see
// HeavySemantics, LightSemantics and NoSemantics.
type SemanticsLevel = core.SemanticsLevel

// Option configures a Client; see New.
type Option func(*clientConfig)

type clientConfig struct {
	match       core.Options
	engineCache int
	// synonymsSet records that WithSynonyms was called, so an explicit
	// WithSynonyms(nil) suppresses the built-in table instead of being
	// indistinguishable from "not configured".
	synonymsSet bool
}

// WithSemantics selects the matching depth (HeavySemantics is the
// default: synonym tables, math patterns and unit conversion).
func WithSemantics(level SemanticsLevel) Option {
	return func(c *clientConfig) { c.match.Semantics = level }
}

// WithSynonyms supplies the synonym table used under heavy semantics. By
// default a client uses the built-in biological table; an explicit
// WithSynonyms(nil) suppresses it, falling back to exact name matching.
func WithSynonyms(t *SynonymTable) Option {
	return func(c *clientConfig) {
		c.match.Synonyms = t
		c.synonymsSet = true
	}
}

// WithLog mirrors composition warnings to w as they are produced.
func WithLog(w io.Writer) Option {
	return func(c *clientConfig) { c.match.Log = w }
}

// WithMatchOptions replaces the whole composition/matching configuration
// at once — the escape hatch for callers (CLIs, tests) that already build
// an Options value. Later options still apply on top. The legacy
// defaulting applies to the replaced value: a nil Synonyms under heavy
// semantics gets the built-in table, exactly like Compose(a, b, &opts);
// follow with WithSynonyms(nil) to suppress that.
func WithMatchOptions(o Options) Option {
	return func(c *clientConfig) {
		c.match = o
		c.synonymsSet = false
	}
}

// WithEngineCache bounds the client's LRU of compiled simulation engines,
// keyed by canonical model bytes: repeated SimulateODE/SimulateSSA/
// CheckProperty/EstimateProbability calls against the same model pay
// compilation once (the corpus keeps one engine per stored model for the
// same reason). 0 keeps the default of 16; negative disables caching.
func WithEngineCache(n int) Option {
	return func(c *clientConfig) { c.engineCache = n }
}

// Client is the context-aware facade over parsing, composition,
// simulation and model checking. It is immutable after New and safe for
// concurrent use; its stateless operations share only the configured
// options and the engine LRU. Corpus and CorpusStore are the stateful
// session counterparts (NewCorpus, OpenCorpus).
type Client struct {
	opts core.Options
	// engines is the compiled-engine LRU, keyed by canonical model
	// bytes; nil when caching is disabled. Engines are immutable and
	// concurrency-safe, so a hit can be shared by any number of
	// simultaneous simulations.
	engines *lru.Cache[*Engine]
}

// New returns a Client configured by the given options. With no options
// it composes with heavy semantics, the built-in synonym table, and a
// 16-entry compiled-engine LRU — the same defaults the package-level
// functions use.
func New(opts ...Option) *Client {
	cfg := clientConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	// The built-in table is a default, not a mandate: an explicit
	// WithSynonyms(nil) keeps heavy semantics synonym-free. Otherwise,
	// WithMatchOptions included, the facade defaulting applies, exactly as
	// Compose(a, b, &Options{}) always has.
	if !cfg.synonymsSet {
		cfg.match = resolveOptions(&cfg.match)
	}
	n := cfg.engineCache
	if n == 0 {
		n = 16
	}
	c := &Client{opts: cfg.match}
	if n > 0 {
		c.engines = lru.New[*Engine](n)
	}
	return c
}

// defaultClient backs the package-level wrappers: the legacy functions
// are context.Background() delegations to it.
var defaultClient = New()

// Options returns the composition/matching options the client resolved
// from its functional options.
func (c *Client) Options() Options { return c.opts }

// --- parsing and serialization (stateless, never long-running) ---

// ParseModel reads an SBML document from r.
func (c *Client) ParseModel(r io.Reader) (*Model, error) { return ParseModel(r) }

// ParseModelString parses an in-memory SBML document.
func (c *Client) ParseModelString(s string) (*Model, error) { return ParseModelString(s) }

// ParseModelFile reads an SBML file.
func (c *Client) ParseModelFile(path string) (*Model, error) { return ParseModelFile(path) }

// WriteModel serializes the model as an SBML Level 2 document.
func (c *Client) WriteModel(m *Model, w io.Writer) error { return WriteModel(m, w) }

// WriteModelFile writes the model to a file.
func (c *Client) WriteModelFile(m *Model, path string) error { return WriteModelFile(m, path) }

// Validate checks the model's structural and referential integrity.
func (c *Client) Validate(m *Model) error { return Validate(m) }

// --- composition and matching ---

// Compose merges model b into a copy of model a under the client's
// options, checking ctx between component families. Neither input is
// modified; a cancelled compose returns ctx's error and no model.
func (c *Client) Compose(ctx context.Context, a, b *Model) (*Result, error) {
	return core.ComposeContext(ctx, a, b, c.opts)
}

// ComposeAll batch-composes the models by the incremental fold. ctx is
// checked between component families of every fold step; a cancelled call
// returns ctx's error with no partial model.
func (c *Client) ComposeAll(ctx context.Context, models []*Model) (*Result, error) {
	return core.ComposeAllContext(ctx, models, c.opts)
}

// MatchModels computes the component correspondence between two models
// without producing a merged model, checking ctx like Compose.
func (c *Client) MatchModels(ctx context.Context, a, b *Model) ([]Match, error) {
	return core.MatchModelsContext(ctx, a, b, c.opts)
}

// Decompose splits a model into its weakly connected reaction
// subnetworks; see the package-level Decompose.
func (c *Client) Decompose(m *Model) ([]*Model, error) { return core.Decompose(m) }

// Compile precompiles a model for repeated or streaming composition under
// the client's options.
func (c *Client) Compile(m *Model) (*CompiledModel, error) { return core.Compile(m, c.opts) }

// NewComposer returns an empty streaming composer under the client's
// options. Feed it with AddContext to make each fold step cancellable; a
// step cancelled mid-mutation poisons the composer (ErrComposerPoisoned)
// rather than exposing a half-merged accumulator.
func (c *Client) NewComposer() *Composer { return core.NewComposer(c.opts) }

// NewCorpus returns an empty model repository session. A nil opts
// inherits the client's match options (so corpus entries are compiled and
// matched exactly as the client composes); a non-nil opts is used as
// given, with NewCorpus's usual defaulting.
func (c *Client) NewCorpus(opts *CorpusOptions) *Corpus {
	if opts == nil {
		return NewCorpus(&CorpusOptions{Match: c.opts})
	}
	return NewCorpus(opts)
}

// OpenCorpus opens (or creates) a durable corpus session in dir; a nil
// opts inherits the client's match options like NewCorpus.
func (c *Client) OpenCorpus(dir string, opts *StoreOptions) (*CorpusStore, error) {
	if opts == nil {
		return OpenCorpus(dir, &StoreOptions{Corpus: CorpusOptions{Match: c.opts}})
	}
	return OpenCorpus(dir, opts)
}

// OpenReplica opens a durable corpus session in dir (like OpenCorpus,
// inheriting the client's match options when opts is nil) and starts it
// as a read-only follower of the primary at primaryURL. The returned
// store serves reads immediately from its recovered state while the
// replica converges it with the primary's log; call Replica.Promote to
// take writes after a primary failure, and Replica.Stop before closing
// the store.
func (c *Client) OpenReplica(dir, primaryURL string, opts *StoreOptions) (*CorpusStore, *Replica, error) {
	st, err := c.OpenCorpus(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := StartReplica(st, ReplicaOptions{PrimaryURL: primaryURL})
	if err != nil {
		_ = st.Close()
		return nil, nil, err
	}
	return st, rep, nil
}

// --- simulation and model checking (engine-cached hot path) ---

// engineFor returns a compiled engine for m through the client's LRU.
// Cached engines are compiled from a private clone, so later mutations of
// the caller's model cannot corrupt them; the cache key is the model's
// canonical serialization, so a mutated model simply misses.
func (c *Client) engineFor(m *Model) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("sbmlcompose: nil model")
	}
	if c.engines == nil {
		return sim.Compile(m)
	}
	key := CanonicalXML(m)
	if eng, ok := c.engines.Get(key); ok {
		return eng, nil
	}
	eng, err := sim.Compile(m.Clone())
	if err != nil {
		return nil, err
	}
	c.engines.Put(key, eng)
	return eng, nil
}

// SimulateODE integrates the model deterministically (RK4, or RKF45 when
// opts.Adaptive), checking ctx between output steps. The engine is served
// from the client's LRU, so repeated simulations of the same model pay
// compilation once; traces are bitwise identical to the uncached path.
func (c *Client) SimulateODE(ctx context.Context, m *Model, opts SimOptions) (*Trace, error) {
	eng, err := c.engineFor(m)
	if err != nil {
		return nil, err
	}
	return eng.ODECtx(ctx, opts)
}

// SimulateSSA runs Gillespie's direct method over molecule counts,
// checking ctx periodically inside the event loop; equal seeds reproduce
// exactly, cached or not.
func (c *Client) SimulateSSA(ctx context.Context, m *Model, opts SimOptions) (*Trace, error) {
	eng, err := c.engineFor(m)
	if err != nil {
		return nil, err
	}
	return eng.SSACtx(ctx, opts)
}

// SimulateEnsembleSSA averages `runs` stochastic trajectories with
// consecutive seeds, run on one worker per proc. ctx is checked between
// runs and inside each run; the mean is identical at every GOMAXPROCS.
func (c *Client) SimulateEnsembleSSA(ctx context.Context, m *Model, runs int, opts SimOptions) (*Trace, error) {
	eng, err := c.engineFor(m)
	if err != nil {
		return nil, err
	}
	return eng.EnsembleSSACtx(ctx, runs, opts)
}

// CheckProperty evaluates a temporal-logic formula (mc2 syntax) over a
// deterministic simulation of the model, checking ctx during the
// integration. The simulation engine comes from the client's LRU.
func (c *Client) CheckProperty(ctx context.Context, m *Model, formula string, opts SimOptions) (bool, error) {
	f, err := mc2.Parse(formula)
	if err != nil {
		return false, err
	}
	eng, err := c.engineFor(m)
	if err != nil {
		return false, err
	}
	tr, err := eng.ODECtx(ctx, opts)
	if err != nil {
		return false, err
	}
	return mc2.Check(tr, f)
}

// ProbabilityEstimate estimates the probability that a stochastic
// trajectory satisfies the formula over `runs` SSA simulations, with its
// 95% Wilson score interval. ctx is checked between and inside runs; a
// cancelled estimate returns ctx's error, never a partial fraction. The
// runs execute on one worker per proc, and the estimate is bit-identical
// at every GOMAXPROCS.
func (c *Client) ProbabilityEstimate(ctx context.Context, m *Model, formula string, runs int, opts SimOptions) (Estimate, error) {
	f, err := mc2.Parse(formula)
	if err != nil {
		return Estimate{}, err
	}
	eng, err := c.engineFor(m)
	if err != nil {
		return Estimate{}, err
	}
	return mc2.Probability(ctx, eng, f, runs, opts)
}

// EstimateProbability is ProbabilityEstimate reduced to the point
// estimate.
func (c *Client) EstimateProbability(ctx context.Context, m *Model, formula string, runs int, opts SimOptions) (float64, error) {
	est, err := c.ProbabilityEstimate(ctx, m, formula, runs, opts)
	if err != nil {
		return 0, err
	}
	return est.Probability, nil
}
