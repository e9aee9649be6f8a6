package mc2

import (
	"context"
	"strings"
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/trace"
)

// ramp builds a trace where A rises 0→1 and B falls 1→0 over t∈[0,10].
func ramp(t *testing.T) *trace.Trace {
	t.Helper()
	tr := trace.New([]string{"A", "B"})
	for i := 0; i <= 10; i++ {
		x := float64(i) / 10
		if err := tr.Append(float64(i), []float64{x, 1 - x}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAtomicPredicates(t *testing.T) {
	tr := ramp(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"{A >= 0}", true},
		{"{A > 0}", false}, // at t=0, A=0
		{"{B == 1}", true},
		{"{A + B == 1}", true},
		{"{time == 0}", true},
	}
	for _, tc := range cases {
		got, err := CheckString(tr, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestTemporalOperators(t *testing.T) {
	tr := ramp(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"G({A >= 0})", true},
		{"G({A < 0.5})", false},
		{"F({A > 0.9})", true},
		{"F({A > 2})", false},
		{"X({A > 0})", true}, // at second sample A=0.1
		{"G({A + B == 1})", true},
		{"{B > 0} U {A >= 1}", true},
		{"{B > 0.5} U {A >= 1}", false}, // B drops below 0.5 before A reaches 1
		{"F[0,3]({A >= 0.3})", true},
		{"F[0,2]({A >= 0.3})", false},
		{"G[5,10]({A >= 0.5})", true},
		{"G[0,5]({A >= 0.5})", false},
		{"!G({A < 0.5})", true},
		{"{A >= 0} & {B >= 0}", true},
		{"{A > 5} | {B <= 1}", true},
		{"{A > 0.5} -> {B < 0.5}", true}, // antecedent false at t=0
		{"G({A > 0.5} -> {B < 0.5})", true},
	}
	for _, tc := range cases {
		got, err := CheckString(tr, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"G(",
		"G({A>0}",
		"{A>0",
		"{A ?? B}",
		"X[0,1]({A>0})",
		"G[3,1]({A>0})",
		"G[1]({A>0})",
		"{A>0}) extra",
		"Y({A>0})",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFormulaStringRoundTrip(t *testing.T) {
	srcs := []string{
		"G({A >= 0})",
		"F[0,5]({B > 1})",
		"({A > 0} U {B > 0})",
		"!{A > 0}",
		"({A > 0} & {B > 0})",
	}
	tr := ramp(t)
	for _, src := range srcs {
		f := MustParse(src)
		f2, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, f.String(), err)
		}
		v1, err1 := Check(tr, f)
		v2, err2 := Check(tr, f2)
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Errorf("%q: round trip changed verdict (%v/%v)", src, v1, v2)
		}
	}
}

func TestCheckEmptyTrace(t *testing.T) {
	tr := trace.New([]string{"A"})
	if _, err := Check(tr, MustParse("G({A>0})")); err == nil {
		t.Error("empty trace should error")
	}
}

func TestAtomUnknownSpecies(t *testing.T) {
	tr := ramp(t)
	if _, err := CheckString(tr, "G({missing > 0})"); err == nil {
		t.Error("unknown species in atom should error")
	}
}

// decayModel for probability estimation: A→B, k=0.5, 100 molecules.
func decayModel() *sbml.Model {
	m := sbml.NewModel("decay")
	m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "c", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	m.Species = append(m.Species,
		&sbml.Species{ID: "A", Compartment: "c", InitialAmount: 100, HasInitialAmount: true},
		&sbml.Species{ID: "B", Compartment: "c", InitialAmount: 0, HasInitialAmount: true},
	)
	m.Parameters = append(m.Parameters, &sbml.Parameter{ID: "k", Value: 0.5, HasValue: true, Constant: true})
	m.Reactions = append(m.Reactions, &sbml.Reaction{
		ID:         "r",
		Reactants:  []*sbml.SpeciesReference{{Species: "A", Stoichiometry: 1}},
		Products:   []*sbml.SpeciesReference{{Species: "B", Stoichiometry: 1}},
		KineticLaw: &sbml.KineticLaw{Math: mathml.MustParseInfix("k*A")},
	})
	return m
}

// probability compiles m and estimates P(f) over it with a background
// context.
func probability(tb testing.TB, m *sbml.Model, f Formula, runs int, opts sim.Options) (Estimate, error) {
	tb.Helper()
	eng, err := sim.Compile(m)
	if err != nil {
		tb.Fatal(err)
	}
	return Probability(context.Background(), eng, f, runs, opts)
}

func TestProbabilityCertainAndImpossible(t *testing.T) {
	m := decayModel()
	opts := sim.Options{T0: 0, T1: 20, Step: 0.5, Seed: 1}
	// Conservation holds on every trajectory.
	est, err := probability(t, m, MustParse("G({A + B == 100})"), 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability != 1 {
		t.Errorf("conservation probability = %g, want 1", est.Probability)
	}
	// A can never exceed its initial count.
	est, err = probability(t, m, MustParse("F({A > 100})"), 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability != 0 {
		t.Errorf("impossible event probability = %g, want 0", est.Probability)
	}
	if est.Runs != 20 {
		t.Errorf("runs = %d", est.Runs)
	}
}

func TestProbabilityIntermediate(t *testing.T) {
	// With k=0.5 over t∈[0,1], each molecule survives with p=e^-0.5≈0.61;
	// P(A(1) < 55) is a nontrivial event with probability strictly between
	// 0 and 1 over a modest horizon... use a threshold near the mean so
	// both outcomes occur across seeds.
	m := decayModel()
	opts := sim.Options{T0: 0, T1: 1, Step: 0.25, Seed: 10}
	est, err := probability(t, m, MustParse("F[1,1]({A < 61})"), 60, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability <= 0 || est.Probability >= 1 {
		t.Errorf("probability = %g, expected strictly between 0 and 1", est.Probability)
	}
	if est.HalfWidth <= 0 || est.HalfWidth > 0.2 {
		t.Errorf("half width = %g", est.HalfWidth)
	}
}

func TestProbabilityErrors(t *testing.T) {
	m := decayModel()
	if _, err := probability(t, m, MustParse("G({A>=0})"), 0, sim.Options{T0: 0, T1: 1}); err == nil {
		t.Error("zero runs should error")
	}
	if _, err := probability(t, m, MustParse("G({ghost>=0})"), 2, sim.Options{T0: 0, T1: 1, Step: 0.5}); err == nil {
		t.Error("unknown species should error")
	}
}

func TestFormulaStringsAreReadable(t *testing.T) {
	f := MustParse("G[0,5]({A > 0} -> F({B > 1}))")
	s := f.String()
	for _, needle := range []string{"G[0,5]", "->", "F(", "{A > 0}"} {
		if !strings.Contains(s, needle) {
			t.Errorf("String() = %q missing %q", s, needle)
		}
	}
}
