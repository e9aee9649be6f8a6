package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoLowestIndexError pins the serial-order error: with failures at
// random indexes and random per-index delays, Do returns the lowest
// failing index's error at every worker count, and every index below it
// ran exactly once.
func TestDoLowestIndexError(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(100*workers + trial)))
			fails := make([]bool, n)
			delay := make([]time.Duration, n)
			lowest := n
			for i := range fails {
				fails[i] = rng.Intn(25) == 0
				if fails[i] && i < lowest {
					lowest = i
				}
				delay[i] = time.Duration(rng.Intn(40)) * time.Microsecond
			}
			calls := make([]atomic.Int32, n)
			err := Do(context.Background(), n, workers, func(_, i int) error {
				calls[i].Add(1)
				time.Sleep(delay[i])
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if lowest == n {
				if err != nil {
					t.Fatalf("workers=%d trial %d: Do = %v, want nil", workers, trial, err)
				}
			} else if want := fmt.Sprintf("index %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("workers=%d trial %d: Do = %v, want %q", workers, trial, err, want)
			}
			for i := range calls {
				c := calls[i].Load()
				if c > 1 || (i <= lowest && c != 1) {
					t.Fatalf("workers=%d trial %d: index %d called %d times (lowest failure %d)", workers, trial, i, c, lowest)
				}
			}
		}
	}
}

// TestDoCancelDrainsPool cancels a fan-out from inside its first call,
// with fn failing from then on, and requires ctx's error, every started
// goroutine gone, and no call started after the cancellation was seen.
func TestDoCancelDrainsPool(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var calls atomic.Int64
		err := Do(ctx, 10000, workers, func(_, i int) error {
			calls.Add(1)
			once.Do(cancel) // fire cancellation from inside the first call
			time.Sleep(50 * time.Microsecond)
			if ctx.Err() != nil {
				return errors.New("fn failed after cancellation")
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Do = %v, want context.Canceled", workers, err)
		}
		// once.Do returns only after cancel has, and ctx is checked
		// before every index, so no worker starts a second call.
		if c := calls.Load(); c > int64(workers) {
			t.Fatalf("workers=%d: %d calls ran after cancellation", workers, c)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: goroutines leaked: %d before, %d after", workers, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx, 100, 4, func(_, i int) error {
		t.Errorf("fn(%d) called under a cancelled context", i)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Do = %v, want context.Canceled", err)
	}
}

// TestDoWorkerCount checks that workers ≤ 0 resolves to GOMAXPROCS and
// that the count is capped at n, by the distinct worker ids fn sees. Each
// worker's first call waits until every expected worker has made one, so
// all of them claim work however the goroutines are scheduled; a shared
// deadline bounds the wait when fewer workers exist.
func TestDoWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, workers, want int }{
		{64, 0, 4},
		{64, -3, 4},
		{64, 2, 2},
		{3, 0, 3},
		{3, 8, 3},
	} {
		var mu sync.Mutex
		seen := map[int]bool{}
		all := make(chan struct{})
		deadline := time.Now().Add(2 * time.Second)
		err := Do(context.Background(), tc.n, tc.workers, func(w, i int) error {
			mu.Lock()
			if !seen[w] {
				seen[w] = true
				if len(seen) == tc.want {
					close(all)
				}
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(time.Until(deadline)):
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != tc.want {
			t.Errorf("n=%d workers=%d: saw workers %v, want %d distinct", tc.n, tc.workers, seen, tc.want)
		}
		for w := range seen {
			if w < 0 || w >= tc.want {
				t.Errorf("n=%d workers=%d: worker id %d outside [0, %d)", tc.n, tc.workers, w, tc.want)
			}
		}
	}
}

// goid returns the calling goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestDoSingleWorkerInline checks that one worker, whether asked for,
// resolved from GOMAXPROCS=1 or capped by n=1, runs every call on the
// caller's goroutine and starts no goroutine.
func TestDoSingleWorkerInline(t *testing.T) {
	caller := goid()
	before := runtime.NumGoroutine()
	check := func(name string, n, workers int) {
		t.Helper()
		calls := 0
		err := Do(context.Background(), n, workers, func(w, i int) error {
			calls++
			if w != 0 {
				t.Errorf("%s: worker %d, want 0", name, w)
			}
			if id := goid(); id != caller {
				t.Errorf("%s: call %d ran on goroutine %s, caller is %s", name, i, id, caller)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("%s: %d goroutines during call %d, %d before", name, g, i, before)
			}
			return nil
		})
		if err != nil || calls != n {
			t.Errorf("%s: Do = %v after %d calls, want nil after %d", name, err, calls, n)
		}
	}
	check("workers=1", 50, 1)
	check("n=1", 1, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("GOMAXPROCS=1", 50, 0)
}

// TestDoEmpty checks that n ≤ 0 never calls fn.
func TestDoEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := Do(context.Background(), n, 4, func(_, i int) error {
			t.Errorf("n=%d: fn(%d) called", n, i)
			return nil
		})
		if err != nil {
			t.Errorf("n=%d: Do = %v, want nil", n, err)
		}
	}
}
