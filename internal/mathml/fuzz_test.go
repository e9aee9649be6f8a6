package mathml

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCompileEval is the machine-driven form of
// TestCompileRandomizedEquivalence: for any infix source that parses,
// over the four slots a..d and the user function fsum, a compiled
// program and the tree-walking Eval must agree bitwise on the value and
// word for word on the error. Compile reports static errors (unknown
// names, arity) up front, before any runtime error Eval might meet
// first, so a source Compile refuses need only make Eval fail too: infix
// has no piecewise, so Eval evaluates every subexpression and must reach
// the static error unless it stops earlier.
func FuzzCompileEval(f *testing.F) {
	vars := []string{"a", "b", "c", "d"}
	r := rand.New(rand.NewSource(20100322))
	for added := 0; added < 48; {
		// Piecewise has no infix syntax; its shapes render unparseably
		// and are left to the randomized test.
		src := FormatInfix(randomVMExpr(r, vars, 4))
		if _, err := ParseInfix(src); err != nil {
			continue
		}
		f.Add(src, float64(r.Intn(7)-3), r.NormFloat64()*3, 0.0, r.NormFloat64())
		added++
	}
	funcs := map[string]Lambda{
		"fsum": {Params: []string{"u", "v"}, Body: MustParseInfix("u*v + u - v")},
	}
	f.Fuzz(func(t *testing.T, src string, a, b, c, d float64) {
		e, err := ParseInfix(src)
		if err != nil {
			return
		}
		st, state, env := tableFor(map[string]float64{"a": a, "b": b, "c": c, "d": d}, funcs)
		want, werr := Eval(e, env)
		prog, cerr := Compile(e, st)
		if cerr != nil {
			if werr == nil {
				t.Fatalf("%s: compile error %q, but eval = %v", src, cerr, want)
			}
			return
		}
		got, gerr := prog.Eval(state, prog.NewStack(), nil)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: error mismatch: eval=%v compiled=%v", src, werr, gerr)
		}
		if werr == nil && math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s: eval=%x compiled=%x", src, math.Float64bits(want), math.Float64bits(got))
		}
	})
}
