package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/trace"
)

// tracesIdentical compares two traces bit for bit.
func tracesIdentical(t *testing.T, label string, a, b *trace.Trace) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: lengths differ: %d vs %d", label, a.Len(), b.Len())
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) {
			t.Fatalf("%s: sample %d time %v vs %v", label, i, a.Times[i], b.Times[i])
		}
		for j := range a.Values[i] {
			if math.Float64bits(a.Values[i][j]) != math.Float64bits(b.Values[i][j]) {
				t.Fatalf("%s: sample %d, species %s: %v vs %v",
					label, i, a.Names[j], a.Values[i][j], b.Values[i][j])
			}
		}
	}
}

// TestEngineMatchesReferenceOnGeneratedModels is the randomized equivalence
// harness: sbmlgen-style generated models (kinetic-law variety, function
// definitions, rules, events, initial assignments) must produce bitwise
// identical ODE and SSA trajectories under the compiled engine and the
// tree-walking reference evaluator.
func TestEngineMatchesReferenceOnGeneratedModels(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		cfg := biomodels.Config{
			ID:             fmt.Sprintf("gen%d", seed),
			Nodes:          6 + int(seed)*3,
			Edges:          8 + int(seed)*4,
			Seed:           9000 + seed,
			VocabularySize: 120,
			Decorate:       true,
		}
		m := biomodels.Generate(cfg)
		opts := Options{T0: 0, T1: 2, Step: 0.05, Seed: 77 + seed}

		refODE, err1 := ReferenceODE(m, opts)
		engODE, err2 := simulateODE(m, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("model %s: ODE error mismatch: ref=%v engine=%v", cfg.ID, err1, err2)
		}
		if err1 == nil {
			tracesIdentical(t, cfg.ID+"/ode", refODE, engODE)
		}

		aopts := opts
		aopts.Adaptive = true
		refA, err1 := ReferenceODE(m, aopts)
		engA, err2 := simulateODE(m, aopts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("model %s: adaptive error mismatch: ref=%v engine=%v", cfg.ID, err1, err2)
		}
		if err1 == nil {
			tracesIdentical(t, cfg.ID+"/rkf45", refA, engA)
		}

		refSSA, err1 := ReferenceSSA(m, opts)
		engSSA, err2 := simulateSSA(m, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("model %s: SSA error mismatch: ref=%v engine=%v", cfg.ID, err1, err2)
		}
		if err1 == nil {
			tracesIdentical(t, cfg.ID+"/ssa", refSSA, engSSA)
		}
	}
}

// eventfulModel exercises delayed events, zero delays, assignment and rate
// rules, local parameters and a function definition all at once.
func eventfulModel() *sbml.Model {
	m := decayModel(1, 1)
	m.Species[1].Constant = false
	m.FunctionDefinitions = append(m.FunctionDefinitions, &sbml.FunctionDefinition{
		ID:   "scaled",
		Math: mathml.Lambda{Params: []string{"x", "f"}, Body: mathml.MustParseInfix("x*f")},
	})
	m.Parameters = append(m.Parameters,
		&sbml.Parameter{ID: "obs", Constant: false},
		&sbml.Parameter{ID: "drive", Value: 0.4, HasValue: true, Constant: true},
	)
	m.Species = append(m.Species,
		&sbml.Species{ID: "C", Compartment: "cell", InitialConcentration: 0.2, HasInitialConcentration: true},
		&sbml.Species{ID: "D", Compartment: "cell", InitialConcentration: 0, HasInitialConcentration: true},
	)
	m.Rules = append(m.Rules,
		&sbml.Rule{Kind: sbml.AssignmentRule, Variable: "obs", Math: mathml.MustParseInfix("scaled(A, 2) + B")},
		&sbml.Rule{Kind: sbml.RateRule, Variable: "C", Math: mathml.MustParseInfix("drive - C")},
		// A species-targeted assignment rule: its value writes through to
		// the state vector at every evaluation point in both evaluators.
		&sbml.Rule{Kind: sbml.AssignmentRule, Variable: "D", Math: mathml.MustParseInfix("A*0.5 + C")},
	)
	m.InitialAssignments = append(m.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "A", Math: mathml.MustParseInfix("2*drive"),
	})
	m.Reactions[0].KineticLaw.Parameters = []*sbml.Parameter{
		{ID: "k", Value: 0.9, HasValue: true, Constant: true}, // shadows global k
	}
	m.Events = append(m.Events,
		&sbml.Event{
			ID:      "delayed",
			Trigger: mathml.MustParseInfix("A < 0.5"),
			Delay:   mathml.N(0.3),
			Assignments: []*sbml.EventAssignment{
				{Variable: "B", Math: mathml.MustParseInfix("A + 10")},
			},
		},
		&sbml.Event{
			ID:      "immediate",
			Trigger: mathml.MustParseInfix("C > 0.3"),
			Assignments: []*sbml.EventAssignment{
				{Variable: "drive", Math: mathml.N(0.1)},
			},
		},
	)
	return m
}

func TestEngineMatchesReferenceOnEventfulModel(t *testing.T) {
	m := eventfulModel()
	for _, adaptive := range []bool{false, true} {
		opts := Options{T0: 0, T1: 3, Step: 0.02, Adaptive: adaptive}
		ref, err := ReferenceODE(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := simulateODE(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		tracesIdentical(t, fmt.Sprintf("eventful/adaptive=%v", adaptive), ref, eng)
	}
}

// TestEngineAssignmentRuleErrorPropagates pins the PR's deliberate change:
// evaluation failures in assignment rules and initial assignments are
// simulation errors in both evaluators, not silent skips.
func TestEngineAssignmentRuleErrorPropagates(t *testing.T) {
	m := decayModel(1, 1)
	// obs has no value and its rule divides by a parameter that is zero.
	m.Parameters = append(m.Parameters,
		&sbml.Parameter{ID: "obs", Constant: false},
		&sbml.Parameter{ID: "zero", Value: 0, HasValue: true, Constant: true},
	)
	m.Rules = append(m.Rules, &sbml.Rule{
		Kind: sbml.AssignmentRule, Variable: "obs", Math: mathml.MustParseInfix("A/zero"),
	})
	if _, err := ReferenceODE(m, Options{T0: 0, T1: 1, Step: 0.1}); err == nil {
		t.Error("reference: assignment-rule division by zero should abort the run")
	}
	if _, err := simulateODE(m, Options{T0: 0, T1: 1, Step: 0.1}); err == nil {
		t.Error("engine: assignment-rule division by zero should abort the run")
	}

	ia := decayModel(1, 1)
	ia.Parameters = append(ia.Parameters, &sbml.Parameter{ID: "zero", Value: 0, HasValue: true, Constant: true})
	ia.InitialAssignments = append(ia.InitialAssignments, &sbml.InitialAssignment{
		Symbol: "A", Math: mathml.MustParseInfix("1/zero"),
	})
	if _, err := ReferenceODE(ia, Options{T0: 0, T1: 1, Step: 0.1}); err == nil {
		t.Error("reference: initial-assignment division by zero should abort the run")
	}
	if _, err := simulateODE(ia, Options{T0: 0, T1: 1, Step: 0.1}); err == nil {
		t.Error("engine: initial-assignment division by zero should abort the run")
	}
}

// TestEngineNonSpeciesRateRuleParity pins that rate rules targeting
// non-species are still evaluated (the reference computes their maths every
// derivative step and fails on their errors) even though they contribute no
// derivative.
func TestEngineNonSpeciesRateRuleParity(t *testing.T) {
	m := decayModel(1, 1)
	m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "p", Value: 1, HasValue: true, Constant: false})
	m.Rules = append(m.Rules, &sbml.Rule{
		Kind: sbml.RateRule, Variable: "p", Math: mathml.MustParseInfix("A*2"),
	})
	opts := Options{T0: 0, T1: 1, Step: 0.1}
	ref, err := ReferenceODE(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simulateODE(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracesIdentical(t, "non-species rate rule", ref, eng)

	bad := decayModel(1, 1)
	bad.Parameters = append(bad.Parameters,
		&sbml.Parameter{ID: "p", Value: 1, HasValue: true, Constant: false},
		&sbml.Parameter{ID: "zero", Value: 0, HasValue: true, Constant: true},
	)
	bad.Rules = append(bad.Rules, &sbml.Rule{
		Kind: sbml.RateRule, Variable: "p", Math: mathml.MustParseInfix("1/zero"),
	})
	if _, err := ReferenceODE(bad, opts); err == nil {
		t.Error("reference: failing non-species rate rule should abort")
	}
	if _, err := simulateODE(bad, opts); err == nil {
		t.Error("engine: failing non-species rate rule should abort")
	}
}

// TestEngineInitialAssignmentChainsResolve keeps the two-pass grace period:
// an assignment referencing a later assignment's symbol must still resolve.
func TestEngineInitialAssignmentChainsResolve(t *testing.T) {
	m := decayModel(1, 1)
	m.Parameters = append(m.Parameters,
		&sbml.Parameter{ID: "p1", Constant: true},
		&sbml.Parameter{ID: "p2", Constant: true},
	)
	m.InitialAssignments = append(m.InitialAssignments,
		&sbml.InitialAssignment{Symbol: "A", Math: mathml.MustParseInfix("p1 + 1")}, // needs p1, set below
		&sbml.InitialAssignment{Symbol: "p1", Math: mathml.MustParseInfix("3")},
	)
	ref, err := ReferenceODE(m, Options{T0: 0, T1: 1, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simulateODE(m, Options{T0: 0, T1: 1, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Values[0][eng.Column("A")]; got != 4 {
		t.Errorf("A(0) = %g, want 4 (chained initial assignment)", got)
	}
	tracesIdentical(t, "ia-chain", ref, eng)
	_ = m
	_ = ref
}

// TestEngineInnerLoopsAllocationFree verifies the tentpole's core claim
// with testing.AllocsPerRun: one ODE derivative evaluation, one full RK4
// step, and one SSA propensity refresh perform zero allocations.
func TestEngineInnerLoopsAllocationFree(t *testing.T) {
	m := biomodels.Generate(biomodels.Config{
		ID: "alloc", Nodes: 25, Edges: 40, Seed: 4242, VocabularySize: 100, Decorate: true,
	})
	e, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}

	rs := e.newRunState()
	rs.ensureODEBuffers()
	if err := rs.initODEState(); err != nil {
		t.Fatal(err)
	}
	if err := rs.derivAt(0, rs.state, rs.dydt); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := rs.derivAt(0.5, rs.state, rs.dydt); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("derivative evaluation allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := rs.rk4Step(0.5, 0.01); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RK4 step allocates %v per call, want 0", a)
	}

	ssa := e.newRunState()
	for i, s := range e.species {
		if s.HasInitialConcentration {
			ssa.state[i] = math.Round(s.InitialConcentration * 1000)
		}
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := ssa.propensities(0.5); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SSA propensity step allocates %v per call, want 0", a)
	}
}

// TestEnsembleSSADeterministicAcrossWorkers pins GOMAXPROCS invariance of
// the parallel multi-run driver: par.Do runs one worker per proc, and the
// mean at 2, 4 and 8 procs must equal the one at 1 bitwise.
func TestEnsembleSSADeterministicAcrossWorkers(t *testing.T) {
	m := decayModel(0.4, 0)
	m.Species[0].HasInitialConcentration = false
	m.Species[0].HasInitialAmount = true
	m.Species[0].InitialAmount = 200
	e, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{T0: 0, T1: 5, Step: 0.5, Seed: 11}
	var base *trace.Trace
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		mean, err := e.EnsembleSSA(context.Background(), 12, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = mean
			continue
		}
		tracesIdentical(t, fmt.Sprintf("ensemble GOMAXPROCS=%d", procs), base, mean)
	}
}

// TestEngineReuseAcrossRuns checks that one compiled engine supports many
// runs without cross-run contamination (event assignments rewrite run-local
// state only).
func TestEngineReuseAcrossRuns(t *testing.T) {
	m := eventfulModel()
	e, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{T0: 0, T1: 3, Step: 0.02}
	first, err := e.ODE(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.ODE(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tracesIdentical(t, "engine reuse", first, second)
}

// TestSSAClampsNaNPropensity pins the NaN clamp both evaluators apply to
// propensities: R2's law ln(q) with q = -1 is NaN, so R2 must never fire,
// while R1 (S -> P at k*S) runs normally. Without the clamp a NaN enters
// the propensity total and the event draw.
func TestSSAClampsNaNPropensity(t *testing.T) {
	m := sbml.NewModel("nanprop")
	m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	for _, s := range []struct {
		id   string
		init float64
	}{{"S", 1000}, {"P", 0}, {"X", 0}} {
		m.Species = append(m.Species, &sbml.Species{ID: s.id, Compartment: "cell", InitialAmount: s.init, HasInitialAmount: true})
	}
	m.Parameters = append(m.Parameters,
		&sbml.Parameter{ID: "k", Value: 1, HasValue: true, Constant: true},
		&sbml.Parameter{ID: "q", Value: -1, HasValue: true, Constant: true},
	)
	m.Reactions = append(m.Reactions,
		&sbml.Reaction{
			ID:         "R1",
			Reactants:  []*sbml.SpeciesReference{{Species: "S", Stoichiometry: 1}},
			Products:   []*sbml.SpeciesReference{{Species: "P", Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*S")},
		},
		&sbml.Reaction{
			ID:         "R2",
			Reactants:  []*sbml.SpeciesReference{{Species: "S", Stoichiometry: 1}},
			Products:   []*sbml.SpeciesReference{{Species: "X", Stoichiometry: 1}},
			KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("ln(q)")},
		},
	)
	opts := Options{T0: 0, T1: 1, Step: 0.25, Seed: 7}
	e, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := e.SSA(context.Background(), opts)
	if err != nil {
		t.Fatalf("Engine.SSA: %v", err)
	}
	ref, err := ReferenceSSA(m, opts)
	if err != nil {
		t.Fatalf("ReferenceSSA: %v", err)
	}
	for _, run := range []struct {
		label string
		tr    *trace.Trace
	}{{"engine", eng}, {"reference", ref}} {
		label, tr := run.label, run.tr
		last := tr.Len() - 1
		if tr.Times[last] != opts.T1 {
			t.Fatalf("%s: trace ends at t=%v, want %v", label, tr.Times[last], opts.T1)
		}
		x, p := tr.Column("X"), tr.Column("P")
		for i := range tr.Times {
			if v := tr.Values[i][x]; v != 0 {
				t.Fatalf("%s: X = %v at t=%v; the NaN-propensity reaction fired", label, v, tr.Times[i])
			}
		}
		if v := tr.Values[last][p]; !(v > 0) {
			t.Fatalf("%s: P ends at %v, want > 0", label, v)
		}
	}
	tracesIdentical(t, "nan-propensity", ref, eng)
}
