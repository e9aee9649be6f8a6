package sim

import (
	"context"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
)

// simInput decodes fuzz bytes into a small generated model and the
// options to run it under. Bytes 0–3 give the species count, edge count,
// generator seed and vocabulary (whose high bit decorates the model);
// byte 4 gives T1, byte 5 the step (its high bit selects the adaptive
// integrator) and byte 6 the SSA seed. Missing bytes read as zero, so
// every input decodes.
func simInput(data []byte) (*sbml.Model, Options) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	nodes := 2 + at(0)%12
	m := biomodels.Generate(biomodels.Config{
		ID:    "fuzz",
		Nodes: nodes,
		Edges: 1 + at(1)%20,
		Seed:  int64(at(2)),
		// Generate samples species names without replacement, so the
		// vocabulary must hold at least Nodes names.
		VocabularySize: nodes + at(3)%40,
		Decorate:       at(3)&0x80 != 0,
	})
	return m, Options{
		T1:       float64(1+at(4)%20) / 10,
		Step:     float64(1+at(5)%10) / 100,
		Adaptive: at(5)&0x80 != 0,
		Seed:     int64(at(6)),
	}
}

// FuzzSimEquiv differentially tests the compiled engine against the
// tree-walking reference evaluator on generated models: ODE and SSA
// trajectories must be bitwise identical, and both sides must agree on
// whether a run fails. A model the engine refuses to compile must fail
// under the reference too.
func FuzzSimEquiv(f *testing.F) {
	f.Add([]byte{4, 6, 1, 10, 9, 4, 7})
	f.Add([]byte{9, 14, 2, 0x8a, 19, 0x82, 3})
	f.Add([]byte{11, 19, 77, 0xa7, 5, 9, 0})
	f.Add([]byte{0, 0, 0, 0x80, 0, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, opts := simInput(data)
		refODE, odeErr := ReferenceODE(m, opts)
		refSSA, ssaErr := ReferenceSSA(m, opts)
		e, err := Compile(m)
		if err != nil {
			if odeErr == nil || ssaErr == nil {
				t.Fatalf("compile error %q, but reference ODE err=%v, SSA err=%v", err, odeErr, ssaErr)
			}
			return
		}
		engODE, err := e.ODE(context.Background(), opts)
		if (err == nil) != (odeErr == nil) {
			t.Fatalf("ODE error mismatch: reference=%v engine=%v", odeErr, err)
		}
		if err == nil {
			tracesIdentical(t, "ode", refODE, engODE)
		}
		engSSA, err := e.SSA(context.Background(), opts)
		if (err == nil) != (ssaErr == nil) {
			t.Fatalf("SSA error mismatch: reference=%v engine=%v", ssaErr, err)
		}
		if err == nil {
			tracesIdentical(t, "ssa", refSSA, engSSA)
		}
	})
}
