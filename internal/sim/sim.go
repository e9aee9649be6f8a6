// Package sim simulates SBML models. The paper's evaluation relies on
// simulation twice: §4.1.2 compares plots of the composed and expected
// models, and §4.1.3 feeds time-series concentrations into a residual
// sum-of-squares comparison. The Monte Carlo model checker (§4.1.4) draws
// stochastic trajectories from the same models.
//
// Two simulators are provided over one compiled representation:
//
//   - ODE integration of the reaction-rate equations with a fixed-step
//     fourth-order Runge–Kutta method or an adaptive Runge–Kutta–Fehlberg
//     4(5) method, and
//   - Gillespie's direct-method stochastic simulation over molecule counts.
//
// Assignment rules are re-applied at every evaluation point, rate rules add
// derivative terms, and events fire on upward trigger crossings — with
// their assignments deferred when the event declares a delay. The SSA path
// ignores events (stochastic event semantics are out of the paper's scope).
//
// # Execution model
//
// Engine.ODE and Engine.SSA run on a compiled engine (machine.go): the
// model's symbols are resolved once into a dense slot-indexed state vector,
// every kinetic law, rule, initial assignment and event expression is
// compiled to a mathml.Program, and stoichiometry is a precomputed sparse
// matrix — so the integrator and propensity inner loops are allocation-free
// and touch no maps. Compile builds the Engine once; reusing it amortizes
// compilation across many runs (the model checker does exactly that). The
// historical tree-walking evaluator is retained as ReferenceODE and
// ReferenceSSA; the engine's trajectories are pinned bitwise to it by the
// randomized equivalence tests and FuzzSimEquiv, and the package's
// benchmarks measure both so the speedup stays visible in BENCH_sim.json.
//
// Unlike the original evaluator, failures to evaluate an initial assignment
// or assignment rule are simulation errors rather than silently skipped
// updates (initial-assignment chains still get a best-effort first pass).
package sim

import (
	"fmt"

	"sbmlcompose/internal/sbml"
)

// Options configures a simulation run.
type Options struct {
	// T0 and T1 bound the simulated interval; T1 must exceed T0.
	T0, T1 float64
	// Step is the output sampling interval (and the RK4 integration step);
	// zero defaults to (T1-T0)/100.
	Step float64
	// Adaptive selects the RKF45 adaptive integrator for ODE runs.
	Adaptive bool
	// Tolerance is the RKF45 local error tolerance; zero defaults to 1e-6.
	Tolerance float64
	// Seed seeds the stochastic simulator; runs with equal seeds are
	// identical.
	Seed int64
	// ScaleFactor converts concentrations to molecule counts for SSA when
	// species use initialConcentration (count = conc × scale). Zero
	// defaults to 1000.
	ScaleFactor float64
}

func (o Options) withDefaults() Options {
	if o.Step == 0 {
		o.Step = (o.T1 - o.T0) / 100
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	if o.ScaleFactor == 0 {
		o.ScaleFactor = 1000
	}
	return o
}

// dynamic reports whether the species participates in the ODE state.
func dynamic(s *sbml.Species) bool { return !s.Constant && !s.BoundaryCondition }

func clampNonNegative(state []float64) {
	for i, v := range state {
		if v < 0 && v > -1e-9 {
			state[i] = 0
		}
	}
}

func checkInterval(opts Options) error {
	if opts.T1 <= opts.T0 {
		return fmt.Errorf("sim: T1 (%g) must exceed T0 (%g)", opts.T1, opts.T0)
	}
	return nil
}
