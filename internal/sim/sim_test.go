package sim

import (
	"context"
	"math"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/trace"
)

// simulateODE compiles m and integrates it on the fresh engine.
func simulateODE(m *sbml.Model, opts Options) (*trace.Trace, error) {
	e, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return e.ODE(context.Background(), opts)
}

// simulateSSA compiles m and runs one Gillespie trajectory on the fresh
// engine.
func simulateSSA(m *sbml.Model, opts Options) (*trace.Trace, error) {
	e, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return e.SSA(context.Background(), opts)
}

// decayModel is A →(k) B with mass-action kinetics; A(t) = A0·e^(−kt).
func decayModel(k, a0 float64) *sbml.Model {
	m := sbml.NewModel("decay")
	m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	m.Species = append(m.Species,
		&sbml.Species{ID: "A", Compartment: "cell", InitialConcentration: a0, HasInitialConcentration: true},
		&sbml.Species{ID: "B", Compartment: "cell", InitialConcentration: 0, HasInitialConcentration: true},
	)
	m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "k", Value: k, HasValue: true, Constant: true})
	m.Reactions = append(m.Reactions, &sbml.Reaction{
		ID:         "r",
		Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*A")},
	})
	return m
}

func TestODEFirstOrderDecayMatchesAnalytic(t *testing.T) {
	const k, a0 = 0.7, 2.0
	tr, err := simulateODE(decayModel(k, a0), Options{T0: 0, T1: 5, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range tr.Times {
		want := a0 * math.Exp(-k*tm)
		got := tr.Values[i][tr.Column("A")]
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("A(%g) = %g, want %g", tm, got, want)
		}
	}
	// Mass conservation: A+B = A0 throughout.
	for i := range tr.Times {
		total := tr.Values[i][0] + tr.Values[i][1]
		if math.Abs(total-a0) > 1e-6 {
			t.Fatalf("mass not conserved at %g: %g", tr.Times[i], total)
		}
	}
}

func TestODEAdaptiveMatchesFixed(t *testing.T) {
	m := decayModel(1.2, 1)
	fixed, err := simulateODE(m, Options{T0: 0, T1: 3, Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := simulateODE(m, Options{T0: 0, T1: 3, Step: 0.05, Adaptive: true, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rss, err := trace.TotalRSS(fixed, adaptive, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rss > 1e-8 {
		t.Errorf("fixed vs adaptive RSS = %g", rss)
	}
}

func TestODEReversibleEquilibrium(t *testing.T) {
	// A ⇌ B with k1 forward, k2 back: A_eq = k2/(k1+k2) × total.
	m := decayModel(0, 1)
	m.Parameters = []*sbml.Parameter{
		{ID: "k1", Value: 2, HasValue: true, Constant: true},
		{ID: "k2", Value: 1, HasValue: true, Constant: true},
	}
	m.Reactions = []*sbml.Reaction{{
		ID:         "rev",
		Reversible: true,
		Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k1*A - k2*B")},
	}}
	tr, err := simulateODE(m, Options{T0: 0, T1: 20, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Values[tr.Len()-1]
	wantA := 1.0 / 3
	if math.Abs(last[tr.Column("A")]-wantA) > 1e-4 {
		t.Errorf("A_eq = %g, want %g", last[tr.Column("A")], wantA)
	}
}

func TestODEMichaelisMenten(t *testing.T) {
	m := decayModel(0, 10)
	m.Parameters = []*sbml.Parameter{
		{ID: "Vmax", Value: 1, HasValue: true, Constant: true},
		{ID: "Km", Value: 5, HasValue: true, Constant: true},
	}
	m.Reactions = []*sbml.Reaction{{
		ID:         "mm",
		Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("Vmax*A/(Km+A)")},
	}}
	tr, err := simulateODE(m, Options{T0: 0, T1: 1, Step: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// At t=0+, d[A]/dt = −Vmax·10/15 = −2/3. Check the first step slope.
	slope := (tr.Values[1][0] - tr.Values[0][0]) / (tr.Times[1] - tr.Times[0])
	if math.Abs(slope+2.0/3) > 1e-3 {
		t.Errorf("initial MM slope = %g, want −0.667", slope)
	}
}

func TestODERateAndAssignmentRules(t *testing.T) {
	m := sbml.NewModel("rules")
	m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "c", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	m.Species = append(m.Species,
		&sbml.Species{ID: "X", Compartment: "c", InitialConcentration: 0, HasInitialConcentration: true},
		&sbml.Species{ID: "Y", Compartment: "c", InitialConcentration: 0, HasInitialConcentration: true},
	)
	m.Rules = append(m.Rules,
		&sbml.Rule{Kind: sbml.RateRule, Variable: "X", Math: mathml.N(2)},                        // dX/dt = 2
		&sbml.Rule{Kind: sbml.AssignmentRule, Variable: "Y", Math: mathml.MustParseInfix("X*3")}, // Y = 3X
	)
	tr, err := simulateODE(m, Options{T0: 0, T1: 1, Step: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Values[tr.Len()-1]
	if math.Abs(last[tr.Column("X")]-2) > 1e-9 {
		t.Errorf("X(1) = %g, want 2", last[tr.Column("X")])
	}
	if math.Abs(last[tr.Column("Y")]-6) > 1e-9 {
		t.Errorf("Y(1) = %g, want 6", last[tr.Column("Y")])
	}
}

func TestODEEventFires(t *testing.T) {
	m := decayModel(1, 1)
	m.Species[1].Constant = false
	m.Events = append(m.Events, &sbml.Event{
		ID:      "reset",
		Trigger: mathml.MustParseInfix("A < 0.5"),
		Assignments: []*sbml.EventAssignment{
			{Variable: "B", Math: mathml.N(42)},
		},
	})
	tr, err := simulateODE(m, Options{T0: 0, T1: 2, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// A crosses 0.5 at t = ln 2 ≈ 0.693; B jumps to 42 there and keeps
	// growing afterwards because the decay reaction still produces it.
	v, _ := tr.At("B", 1.0)
	if v < 42 || v > 43 {
		t.Errorf("B(1.0) = %g, want slightly above 42 after the event", v)
	}
	early, _ := tr.At("B", 0.4)
	if early >= 1 {
		t.Errorf("B(0.4) = %g; event fired too early", early)
	}
}

func TestODEFunctionDefinitionCall(t *testing.T) {
	m := decayModel(0, 10)
	m.FunctionDefinitions = append(m.FunctionDefinitions, &sbml.FunctionDefinition{
		ID:   "mm",
		Math: mathml.Lambda{Params: []string{"s", "v", "km"}, Body: mathml.MustParseInfix("v*s/(km+s)")},
	})
	m.Parameters = []*sbml.Parameter{
		{ID: "Vmax", Value: 1, HasValue: true, Constant: true},
		{ID: "Km", Value: 5, HasValue: true, Constant: true},
	}
	m.Reactions[0].KineticLaw = &sbml.KineticLaw{Math: mathml.MustParseInfix("mm(A, Vmax, Km)")}
	tr, err := simulateODE(m, Options{T0: 0, T1: 0.5, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
}

func TestODELocalParametersShadowGlobals(t *testing.T) {
	m := decayModel(99, 1) // global k = 99
	m.Reactions[0].KineticLaw.Parameters = []*sbml.Parameter{
		{ID: "k", Value: 0.5, HasValue: true, Constant: true}, // local wins
	}
	tr, err := simulateODE(m, Options{T0: 0, T1: 1, Step: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tr.At("A", 1)
	want := math.Exp(-0.5)
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("A(1) = %g, want %g (local k)", got, want)
	}
}

func TestODEErrors(t *testing.T) {
	m := decayModel(1, 1)
	if _, err := simulateODE(m, Options{T0: 1, T1: 1}); err == nil {
		t.Error("empty interval should fail")
	}
	bad := decayModel(1, 1)
	bad.Reactions[0].KineticLaw.Math = mathml.MustParseInfix("undefined_param*A")
	if _, err := simulateODE(bad, Options{T0: 0, T1: 1}); err == nil {
		t.Error("unbound identifier should fail (validation or eval)")
	}
	invalid := decayModel(1, 1)
	invalid.Species[0].Compartment = "nowhere"
	if _, err := simulateODE(invalid, Options{T0: 0, T1: 1}); err == nil {
		t.Error("invalid model should fail compile validation")
	}
}

func TestSSADeterministicPerSeed(t *testing.T) {
	m := decayModel(0.1, 0)
	m.Species[0].HasInitialConcentration = false
	m.Species[0].HasInitialAmount = true
	m.Species[0].InitialAmount = 500
	a, err := simulateSSA(m, Options{T0: 0, T1: 10, Step: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateSSA(m, Options{T0: 0, T1: 10, Step: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rss, err := trace.TotalRSS(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rss != 0 {
		t.Errorf("same seed should reproduce exactly, RSS = %g", rss)
	}
	c, err := simulateSSA(m, Options{T0: 0, T1: 10, Step: 0.5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	rss, _ = trace.TotalRSS(a, c, nil)
	if rss == 0 {
		t.Error("different seeds should differ")
	}
}

func TestSSAConservesTotalCount(t *testing.T) {
	m := decayModel(0.5, 0)
	m.Species[0].HasInitialConcentration = false
	m.Species[0].HasInitialAmount = true
	m.Species[0].InitialAmount = 300
	m.Species[1].HasInitialConcentration = false
	m.Species[1].HasInitialAmount = true
	m.Species[1].InitialAmount = 0
	tr, err := simulateSSA(m, Options{T0: 0, T1: 20, Step: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Times {
		if total := tr.Values[i][0] + tr.Values[i][1]; total != 300 {
			t.Fatalf("count not conserved at %g: %g", tr.Times[i], total)
		}
	}
	// Everything eventually decays.
	last := tr.Values[tr.Len()-1]
	if last[tr.Column("A")] > 30 {
		t.Errorf("A(20) = %g, expected near-complete decay", last[tr.Column("A")])
	}
}

func TestSSAMeanApproximatesODE(t *testing.T) {
	// Law of large numbers: averaged SSA ≈ ODE for first-order decay.
	const n0 = 1000.0
	m := decayModel(0.3, 0)
	m.Species[0].HasInitialConcentration = false
	m.Species[0].HasInitialAmount = true
	m.Species[0].InitialAmount = n0
	const runs = 30
	sum := 0.0
	for seed := int64(0); seed < runs; seed++ {
		tr, err := simulateSSA(m, Options{T0: 0, T1: 2, Step: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := tr.At("A", 2)
		sum += v
	}
	mean := sum / runs
	want := n0 * math.Exp(-0.3*2)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("SSA mean A(2) = %g, ODE predicts %g", mean, want)
	}
}

func TestSSAScaleFactorForConcentrations(t *testing.T) {
	m := decayModel(0.1, 2.5) // concentration 2.5 → 2500 molecules at scale 1000
	tr, err := simulateSSA(m, Options{T0: 0, T1: 0.001, Step: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Values[0][tr.Column("A")]; got != 2500 {
		t.Errorf("initial count = %g, want 2500", got)
	}
}
