package sim

// Cancellation tests for the engine's run paths: the check before the
// output trace is allocated, the ODE step loop, the SSA event loop and
// sample fill (each checked every ssaCtxCheckEvery events or samples), and
// the ensemble fan-out.

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
	// Budget 5: the run survives the check before the trace is allocated
	// and four step-boundary checks, then stops.
	if _, err := e.ODE(newCountingCtx(5), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run ODE = %v, want context.Canceled", err)
	}
	// Pre-cancelled context: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ODE(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ODE = %v, want context.Canceled", err)
	}
	// The engine is unaffected: a live run still matches an independent
	// engine bitwise.
	tr, err := e.ODE(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := Compile(decayModel(0.5, 100))
	want, err := e2.ODE(context.Background(), opts)
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
// on the order of a million sub-steps; ODE's between-steps check never
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
	if _, err := e.ODE(newCountingCtx(1000), storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("storm with 1000-check budget: err = %v, want context.Canceled", err)
	}
	// A small budget cancels promptly mid-storm.
	if _, err := e.ODE(newCountingCtx(3), storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("storm with 3-check budget: err = %v, want context.Canceled", err)
	}
	// Already-cancelled context: the adaptive path returns before any
	// integration work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ODE(ctx, storm); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled adaptive ODE = %v, want context.Canceled", err)
	}
	// The in-loop check must not perturb the arithmetic: an uncancelled
	// adaptive run is bitwise identical to a fresh engine's ODE.
	mild := Options{T1: 1, Step: 0.1, Adaptive: true, Tolerance: 1e-8}
	e2, err := Compile(decayModel(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.ODE(context.Background(), mild)
	if err != nil {
		t.Fatal(err)
	}
	e3, _ := Compile(decayModel(100, 1))
	want, err := e3.ODE(context.Background(), mild)
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
	// 5 × ScaleFactor = 5000 molecules decay one Gillespie event each by
	// T1, so the every-1024-events check fires four times inside one run.
	// The budget of 3 spends two checks before the first event (before the
	// trace is allocated and at the first sample) and the third at event
	// 1024, so cancellation lands at event 2048.
	e, err := Compile(decayModel(1.0, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{T1: 50, Step: 25, Seed: 7}
	if _, err := e.SSA(newCountingCtx(3), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run SSA = %v, want context.Canceled", err)
	}
	// Uncancelled runs are bitwise reproducible afterwards.
	a, err := e.SSA(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SSA(context.Background(), opts)
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
			if _, err := c.e.SSA(cancelled, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s step=%g: pre-cancelled SSA = %v, want context.Canceled", c.name, step, err)
			}
		}
	}
	// Mid-fill: the sixth check cancels (the first comes before the trace
	// is allocated, the sixth at sample 4×ssaCtxCheckEvery of 10001), and
	// no event loop check comes first.
	opts := Options{T1: 10, Step: 1e-3, Seed: 1}
	for _, c := range engines {
		if _, err := c.e.SSA(newCountingCtx(5), opts); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-fill SSA = %v, want context.Canceled", c.name, err)
		}
		// Uncancelled, the run fills the whole grid.
		tr, err := c.e.SSA(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() < 10001 {
			t.Errorf("%s: uncancelled run has %d samples, want the full grid", c.name, tr.Len())
		}
	}
}

// TestPreCancelledRunsAllocateNoTrace pins the check before the output
// trace is allocated: at Step 1e-6 the trace would hold a million samples,
// tens of megabytes that a dead request must not allocate.
func TestPreCancelledRunsAllocateNoTrace(t *testing.T) {
	e, err := Compile(decayModel(1.0, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{T1: 1, Step: 1e-6}
	for _, run := range []struct {
		name string
		run  func() (*trace.Trace, error)
	}{
		{"ODE", func() (*trace.Trace, error) { return e.ODE(ctx, opts) }},
		{"SSA", func() (*trace.Trace, error) { return e.SSA(ctx, opts) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := run.run()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled %s = %v, want context.Canceled", run.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("pre-cancelled %s allocated %d bytes", run.name, n)
		}
	}
}

// TestEnsembleSSACtxCancelled checks that a pre-cancelled ensemble
// returns ctx's error at every GOMAXPROCS, and that the engine then
// yields the same mean at GOMAXPROCS 1, 2, 4 and 8, bitwise.
func TestEnsembleSSACtxCancelled(t *testing.T) {
	e, err := Compile(decayModel(1.0, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var base *trace.Trace
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		if _, err := e.EnsembleSSA(ctx, 50, Options{T1: 20, Step: 10}); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: pre-cancelled EnsembleSSA = %v, want context.Canceled", procs, err)
		}
		mean, err := e.EnsembleSSA(context.Background(), 8, Options{T1: 5, Step: 1, Seed: 3})
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
