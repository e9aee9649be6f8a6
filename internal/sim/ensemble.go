package sim

// Parallel multi-run driver. The engine compiles a model once; an ensemble
// then fans independent SSA trajectories out with par.Do, each with its
// own runState and a consecutively-seeded RNG, so the result is identical
// at every GOMAXPROCS — the same scheme mc2.Probability uses.

import (
	"context"
	"fmt"

	"sbmlcompose/internal/par"
	"sbmlcompose/internal/trace"
)

// EnsembleSSA runs `runs` stochastic simulations with consecutive seeds
// starting at opts.Seed, in parallel on par.Do's workers, and returns the
// mean trajectory. The mean is accumulated in run order, so the result is
// bit-identical at every GOMAXPROCS.
func (e *Engine) EnsembleSSA(runs int, opts Options) (*trace.Trace, error) {
	return e.EnsembleSSACtx(context.Background(), runs, opts)
}

// EnsembleSSACtx is EnsembleSSA honoring cancellation: ctx is checked
// before each run by par.Do and inside each run's event loop, every run
// has returned before the call does, and a cancelled ensemble returns
// ctx's error with no partial mean. An uncancelled context produces a mean
// bit-identical to EnsembleSSA at every GOMAXPROCS.
func (e *Engine) EnsembleSSACtx(ctx context.Context, runs int, opts Options) (*trace.Trace, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("sim: ensemble runs must be positive")
	}
	traces := make([]*trace.Trace, runs)
	err := par.Do(ctx, runs, func(_, i int) error {
		runOpts := opts
		runOpts.Seed = opts.Seed + int64(i)
		tr, err := e.SSACtx(ctx, runOpts)
		if err != nil {
			return err
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sequential reduction in run order keeps the mean deterministic.
	mean := trace.New(e.names)
	first := traces[0]
	row := make([]float64, len(e.names))
	for s := 0; s < first.Len(); s++ {
		for j := range row {
			row[j] = 0
		}
		for _, tr := range traces {
			if tr.Len() != first.Len() {
				return nil, fmt.Errorf("sim: ensemble runs sampled %d and %d points", first.Len(), tr.Len())
			}
			for j, v := range tr.Values[s] {
				row[j] += v
			}
		}
		for j := range row {
			row[j] /= float64(runs)
		}
		if err := mean.Append(first.Times[s], row); err != nil {
			return nil, err
		}
	}
	return mean, nil
}
