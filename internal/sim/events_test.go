package sim

import (
	"testing"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
)

func TestODEDelayedEvent(t *testing.T) {
	// A decays from 1 with k=1; trigger A < 0.5 fires at t = ln2 ≈ 0.693,
	// but the assignment B := 42 is delayed by 1 time unit, so it must not
	// apply before t ≈ 1.693.
	m := decayModel(1, 1)
	m.Species[1].Constant = false
	m.Events = append(m.Events, &sbml.Event{
		ID:      "delayed_reset",
		Trigger: mathml.MustParseInfix("A < 0.5"),
		Delay:   mathml.N(1),
		Assignments: []*sbml.EventAssignment{
			{Variable: "B", Math: mathml.N(42)},
		},
	})
	tr, err := simulateODE(m, Options{T0: 0, T1: 3, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := tr.At("B", 1.5) // after trigger, before delay elapses
	if before >= 42 {
		t.Errorf("B(1.5) = %g; delayed assignment applied too early", before)
	}
	after, _ := tr.At("B", 2.0)
	if after < 42 {
		t.Errorf("B(2.0) = %g; delayed assignment never applied", after)
	}
}

func TestODEZeroDelayBehavesImmediate(t *testing.T) {
	m := decayModel(1, 1)
	m.Species[1].Constant = false
	m.Events = append(m.Events, &sbml.Event{
		ID:      "zero_delay",
		Trigger: mathml.MustParseInfix("A < 0.5"),
		Delay:   mathml.N(0),
		Assignments: []*sbml.EventAssignment{
			{Variable: "B", Math: mathml.N(7)},
		},
	})
	tr, err := simulateODE(m, Options{T0: 0, T1: 2, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.At("B", 0.8)
	if v < 7 {
		t.Errorf("B(0.8) = %g; zero-delay event should fire immediately", v)
	}
}

func TestODEDelayedEventAssignmentUsesFireTimeValues(t *testing.T) {
	// The assignment B := A is evaluated when the delay elapses, so it
	// captures A at fire time (≈ e^-2 at t=2), not at trigger time.
	m := decayModel(1, 1)
	m.Species[1].Constant = false
	m.Events = append(m.Events, &sbml.Event{
		ID:      "capture",
		Trigger: mathml.MustParseInfix("A < 0.5"), // t ≈ 0.693
		Delay:   mathml.MustParseInfix("1.3"),     // fires ≈ 1.993
		Assignments: []*sbml.EventAssignment{
			{Variable: "B", Math: mathml.S("A")},
		},
	})
	tr, err := simulateODE(m, Options{T0: 0, T1: 3, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.At("B", 2.5)
	// At fire time A ≈ e^-2 ≈ 0.135 (well below the 0.5 trigger value).
	if v > 0.2 || v < 0.1 {
		t.Errorf("B after capture = %g, want ≈0.135 (fire-time A)", v)
	}
}
