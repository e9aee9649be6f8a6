package core

// Cancellation tests for the context plumbing: the step pipeline's
// family-boundary checks and Composer poisoning semantics. A countingCtx
// cancels after an exact number of Err() observations, which makes
// "cancelled between family 3 and 4 of step 5" reproducible instead of a
// wall-clock race.

import (
	"context"
	"errors"
	"testing"
	"time"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
)

// countingCtx reports Canceled from the (n+1)-th Err() call on. The
// composition code only polls Err(), so Done returning a never-closed
// channel is fine.
type countingCtx struct {
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
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// cancelBatch is a shared rename-heavy workload: overlapping namespaces
// force real merge work in every family.
func cancelBatch(t *testing.T, n int) []*sbml.Model {
	t.Helper()
	return biomodels.NamespacedBatch(n, 30, 45, 977)
}

func foldClean(t *testing.T, models []*sbml.Model) string {
	t.Helper()
	c := NewComposer(Options{})
	for _, m := range models {
		if err := c.Add(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	return sbml.WrapModel(c.Result().Model).String()
}

// TestAddContextPoisonSweep drives Add with cancellation landing
// at every possible Err() observation point of a three-model fold and
// checks the all-or-poisoned contract at each: either the cancellation
// was caught before any mutation — the same composer can simply retry and
// must end byte-identical to an uncancelled twin — or the composer is
// poisoned: further Adds fail with ErrComposerPoisoned and
// Result/Model/Snapshot return nil. There is no third state in which a
// half-merged accumulator stays observable.
func TestAddContextPoisonSweep(t *testing.T) {
	models := cancelBatch(t, 3)
	want := foldClean(t, models)

	sawPoison, sawClean := false, false
	for budget := 0; ; budget++ {
		c := NewComposer(Options{})
		ctx := newCountingCtx(budget)
		cancelled := false
		for i := 0; i < len(models); {
			err := c.Add(ctx, models[i])
			if err == nil {
				i++
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %d: unexpected error %v", budget, err)
			}
			cancelled = true
			if c.Err() != nil {
				sawPoison = true
				// Poisoned: the interrupted accumulator must be
				// unreachable and the composer must refuse further use.
				if c.Result() != nil || c.Model() != nil || c.Snapshot() != nil {
					t.Fatalf("budget %d: poisoned composer still exposes state", budget)
				}
				if err := c.Add(context.Background(), models[0]); !errors.Is(err, ErrComposerPoisoned) {
					t.Fatalf("budget %d: Add after poison = %v, want ErrComposerPoisoned", budget, err)
				}
				if !errors.Is(c.Err(), ErrComposerPoisoned) || !errors.Is(c.Err(), context.Canceled) {
					t.Fatalf("budget %d: Err() = %v, want wrap of both sentinels", budget, c.Err())
				}
				break
			}
			// Caught at entry, nothing mutated: the composer must be
			// fully usable — finish the fold with a live context and
			// match the twin.
			sawClean = true
			for ; i < len(models); i++ {
				if err := c.Add(context.Background(), models[i]); err != nil {
					t.Fatalf("budget %d: resumed Add failed: %v", budget, err)
				}
			}
			if got := sbml.WrapModel(c.Result().Model).String(); got != want {
				t.Fatalf("budget %d: resumed fold diverged from twin", budget)
			}
			break
		}
		if !cancelled {
			// The whole fold ran inside the budget: it must match the
			// uncancelled twin exactly, proving the checks themselves
			// don't perturb composition.
			if got := sbml.WrapModel(c.Result().Model).String(); got != want {
				t.Fatalf("budget %d: uncancelled fold diverged", budget)
			}
			break // larger budgets only get more permissive
		}
	}
	if !sawPoison || !sawClean {
		t.Fatalf("sweep did not exercise both outcomes (poison=%v clean=%v)", sawPoison, sawClean)
	}
}

// TestComposeContextPreCancelled pins the cheap path: an already-cancelled
// context fails before any work, and the same call with a live context is
// unaffected.
func TestComposeContextPreCancelled(t *testing.T) {
	models := cancelBatch(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compose(ctx, models[0], models[1], Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Compose = %v, want context.Canceled", err)
	}
	if _, err := MatchModels(ctx, models[0], models[1], Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled MatchModels = %v, want context.Canceled", err)
	}
	if _, err := ComposeAll(ctx, models, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ComposeAll = %v, want context.Canceled", err)
	}
	ref, err := Compose(context.Background(), models[0], models[1], Options{})
	if err != nil || ref.Model == nil {
		t.Fatalf("live-context Compose failed: %v", err)
	}
}
