package sim

import (
	"context"
	"math"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/sbml"
)

// The rows of BENCH_sim.json, with internal/mc2's: the ODE derivative and
// SSA propensity inner loops and full runs, each under the compiled slot
// engine and the tree-walking reference, across the size ladder. Written by
//
//	go test -run '^$' -bench . -benchmem -cpu 1 -count 5 ./internal/sim ./internal/mc2 |
//	    go run ./cmd/benchfig -out BENCH_sim.json

// eachSize calls fn with every model of the size ladder.
func eachSize(fn func(size string, m *sbml.Model)) {
	for _, sz := range []struct {
		name         string
		nodes, edges int
	}{{"small", 15, 20}, {"medium", 60, 90}, {"large", 150, 240}} {
		fn(sz.name, biomodels.Generate(biomodels.Config{
			ID: "simbench_" + sz.name, Nodes: sz.nodes, Edges: sz.edges, Seed: 90210,
			VocabularySize: 150, Decorate: true,
		}))
	}
}

// benchRow runs op b.N times as the sub-benchmark "size=<size>/engine=<engine>".
func benchRow(b *testing.B, size, engine string, op func() error) {
	b.Run("size="+size+"/engine="+engine, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkODEDeriv evaluates the full derivative vector once at a fixed
// state.
func BenchmarkODEDeriv(b *testing.B) {
	eachSize(func(size string, m *sbml.Model) {
		e, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		rs := e.newRunState()
		rs.ensureODEBuffers()
		if err := rs.initODEState(); err != nil {
			b.Fatal(err)
		}
		benchRow(b, size, "compiled", func() error { return rs.derivAt(0.5, rs.state, rs.dydt) })

		tm, err := compileTree(m)
		if err != nil {
			b.Fatal(err)
		}
		state, err := tm.initialState()
		if err != nil {
			b.Fatal(err)
		}
		benchRow(b, size, "tree", func() error { _, err := tm.derivatives(0.5, state); return err })
	})
}

// BenchmarkSSAStep rebuilds the evaluation environment and evaluates every
// reaction's propensity once: one Gillespie step's worth of expression
// work.
func BenchmarkSSAStep(b *testing.B) {
	counts := func(species []*sbml.Species, dst []float64) {
		for i, s := range species {
			switch {
			case s.HasInitialAmount:
				dst[i] = math.Round(s.InitialAmount)
			case s.HasInitialConcentration:
				dst[i] = math.Round(s.InitialConcentration * 1000)
			}
		}
	}
	eachSize(func(size string, m *sbml.Model) {
		e, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		rs := e.newRunState()
		counts(e.species, rs.state)
		benchRow(b, size, "compiled", func() error { _, err := rs.propensities(0.5); return err })

		tm, err := compileTree(m)
		if err != nil {
			b.Fatal(err)
		}
		state := make([]float64, len(tm.species))
		counts(tm.species, state)
		type lawCase struct {
			law    mathml.Expr
			locals map[string]float64
		}
		var laws []lawCase
		for _, r := range tm.model.Reactions {
			if r.KineticLaw == nil || r.KineticLaw.Math == nil {
				continue
			}
			lp := make(map[string]float64)
			for _, p := range r.KineticLaw.Parameters {
				if p.HasValue {
					lp[p.ID] = p.Value
				}
			}
			laws = append(laws, lawCase{law: r.KineticLaw.Math, locals: lp})
		}
		benchRow(b, size, "tree", func() error {
			env, err := tm.env(0.5, state)
			if err != nil {
				return err
			}
			for _, lc := range laws {
				local := env
				if len(lc.locals) > 0 {
					vals := make(map[string]float64, len(env.Values)+len(lc.locals))
					for k, v := range env.Values {
						vals[k] = v
					}
					for k, v := range lc.locals {
						vals[k] = v
					}
					local = &mathml.MapEnv{Values: vals, Functions: tm.funcs}
				}
				if _, err := mathml.Eval(lc.law, local); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// runOpts are the full-run rows' options.
var runOpts = Options{T0: 0, T1: 1, Step: 0.01, Seed: 7}

// BenchmarkODERun is a full fixed-step ODE run.
func BenchmarkODERun(b *testing.B) {
	eachSize(func(size string, m *sbml.Model) {
		e, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		benchRow(b, size, "compiled", func() error { _, err := e.ODE(context.Background(), runOpts); return err })
		benchRow(b, size, "tree", func() error { _, err := ReferenceODE(m, runOpts); return err })
	})
}

// BenchmarkSSARun is a full Gillespie run.
func BenchmarkSSARun(b *testing.B) {
	eachSize(func(size string, m *sbml.Model) {
		e, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		benchRow(b, size, "compiled", func() error { _, err := e.SSA(context.Background(), runOpts); return err })
		if size == "large" {
			return // the tree row costs ~27 s and 15.3M allocs per op; small and medium show the ratio
		}
		benchRow(b, size, "tree", func() error { _, err := ReferenceSSA(m, runOpts); return err })
	})
}
