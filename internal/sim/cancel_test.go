package sim

// Cancellation tests for the engine's context-aware run paths: the ODE
// step loop, the SSA event loop and sample fill (each checked every
// ssaCtxCheckEvery events or samples), and the ensemble fan-out.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/trace"
)

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// value the test started with when it ends.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// countingCtx reports Canceled from the (n+1)-th Err() call on.
type countingCtx struct {
	mu        sync.Mutex
	remaining int
	done      chan struct{}
}

func newCountingCtx(n int) *countingCtx {
	return &countingCtx{remaining: n, done: make(chan struct{})}
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return c.done }
func (c *countingCtx) Value(any) any               { return nil }

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestODECtxCancelsMidIntegration(t *testing.T) {
	e, err := Compile(decayModel(0.5, 100))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{T1: 10, Step: 0.01}
	// Budget 5: the run survives five step-boundary checks, then stops.
	if _, err := e.ODECtx(newCountingCtx(5), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run ODECtx = %v, want context.Canceled", err)
	}
	// Pre-cancelled context: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ODECtx(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ODECtx = %v, want context.Canceled", err)
	}
	// The engine is unaffected: a live run still matches an independent
	// engine bitwise.
	tr, err := e.ODECtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := Compile(decayModel(0.5, 100))
	want, err := e2.ODE(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != len(want.Times) || tr.Values[len(tr.Values)-1][0] != want.Values[len(want.Values)-1][0] {
		t.Fatal("post-cancellation run diverged from fresh engine")
	}
}

// TestODECtxCancelsInsideSubstepStorm pins cancellation from inside the
// RKF45 sub-step loop. A very stiff decay under a tight tolerance drives
// the step controller to its floor (h·1e-6), where one output step costs
// on the order of a million sub-steps; ODECtx's between-steps check never
// runs during that storm, so the loop must check on its own.
func TestODECtxCancelsInsideSubstepStorm(t *testing.T) {
	e, err := Compile(decayModel(1e8, 1))
	if err != nil {
		t.Fatal(err)
	}
	storm := Options{T1: 1, Step: 1, Adaptive: true, Tolerance: 1e-14}
	// Sanity that the configuration actually storms: even a budget of a
	// thousand checks (~32k sub-steps) is exhausted inside the single
	// output step. Without this the assertions below would pass vacuously
	// on a non-stiff setup.
	if _, err := e.ODECtx(newCountingCtx(1000), storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("storm with 1000-check budget: err = %v, want context.Canceled", err)
	}
	// A small budget cancels promptly mid-storm.
	if _, err := e.ODECtx(newCountingCtx(3), storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("storm with 3-check budget: err = %v, want context.Canceled", err)
	}
	// Already-cancelled context: the adaptive path returns before any
	// integration work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ODECtx(ctx, storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled adaptive ODECtx = %v, want context.Canceled", err)
	}
	// The in-loop check must not perturb the arithmetic: an uncancelled
	// adaptive run is bitwise identical to a fresh engine's ODE.
	mild := Options{T1: 1, Step: 0.1, Adaptive: true, Tolerance: 1e-8}
	e2, err := Compile(decayModel(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.ODECtx(context.Background(), mild)
	if err != nil {
		t.Fatal(err)
	}
	e3, _ := Compile(decayModel(100, 1))
	want, err := e3.ODE(mild)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(got.Times), len(want.Times))
	}
	for i := range got.Values {
		for j := range got.Values[i] {
			if got.Values[i][j] != want.Values[i][j] {
				t.Fatalf("value [%d][%d] diverges: %v vs %v", i, j, got.Values[i][j], want.Values[i][j])
			}
		}
	}
}

func TestSSACtxCancelsInsideEventLoop(t *testing.T) {
	// A large initial population sustains ~1e4 Gillespie events, so the
	// every-1024-events check fires several times inside one run.
	e, err := Compile(decayModel(1.0, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{T1: 50, Step: 25, Seed: 7}
	if _, err := e.SSACtx(newCountingCtx(3), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run SSACtx = %v, want context.Canceled", err)
	}
	// Uncancelled runs are bitwise reproducible afterwards.
	a, err := e.SSACtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SSA(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if a.Values[i][j] != b.Values[i][j] {
				t.Fatalf("sample %d col %d: %v != %v after cancelled run", i, j, a.Values[i][j], b.Values[i][j])
			}
		}
	}
}

// TestSSACtxCancelsSampleFill covers the two loops that append samples
// without a reaction event: the flat-line fill of an exhausted system and
// the fill up to an event far beyond the sampling grid. Neither may
// outrun cancellation, however many samples the grid asks for.
func TestSSACtxCancelsSampleFill(t *testing.T) {
	idle := sbml.NewModel("idle")
	idle.Compartments = append(idle.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
	idle.Species = append(idle.Species, &sbml.Species{ID: "A", Compartment: "cell", InitialAmount: 5, HasInitialAmount: true})
	exhausted, err := Compile(idle)
	if err != nil {
		t.Fatal(err)
	}
	// One molecule decaying at rate 1e-9: the first event lands far
	// past T1, so every sample comes from the catch-up fill.
	slow, err := Compile(decayModel(1e-9, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		e    *Engine
	}{{"exhausted", exhausted}, {"slow", slow}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, step := range []float64{0.1, 1e-5} {
		opts := Options{T1: 10, Step: step, Seed: 1}
		for _, c := range engines {
			if _, err := c.e.SSACtx(cancelled, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s step=%g: pre-cancelled SSACtx = %v, want context.Canceled", c.name, step, err)
			}
		}
	}
	// Mid-fill: the sixth check (sample 5×ssaCtxCheckEvery of 10001)
	// cancels, and no event loop check comes first.
	opts := Options{T1: 10, Step: 1e-3, Seed: 1}
	for _, c := range engines {
		if _, err := c.e.SSACtx(newCountingCtx(5), opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-fill SSACtx = %v, want context.Canceled", c.name, err)
		}
		// Uncancelled, the run fills the whole grid.
		tr, err := c.e.SSACtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() < 10001 {
			t.Errorf("%s: uncancelled run has %d samples, want the full grid", c.name, tr.Len())
		}
	}
}

// TestEnsembleSSACtxCancelled checks that a pre-cancelled ensemble
// returns ctx's error at every GOMAXPROCS, and that the engine then
// yields the same mean at GOMAXPROCS 1, 2, 4 and 8, bitwise.
func TestEnsembleSSACtxCancelled(t *testing.T) {
	e, err := Compile(decayModel(1.0, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var base *trace.Trace
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		if _, err := e.EnsembleSSACtx(ctx, 50, Options{T1: 20, Step: 10}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: pre-cancelled EnsembleSSACtx = %v, want context.Canceled", procs, err)
		}
		mean, err := e.EnsembleSSA(8, Options{T1: 5, Step: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = mean
			continue
		}
		tracesIdentical(t, fmt.Sprintf("ensemble mean at GOMAXPROCS=%d", procs), base, mean)
	}
}
