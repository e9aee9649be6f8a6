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

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// value the test started with when it ends.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDoLowestIndexError pins the serial-order error: with failures at
// random indexes and random per-index delays, Do returns the lowest
// failing index's error at every GOMAXPROCS, and every index below it
// ran exactly once.
func TestDoLowestIndexError(t *testing.T) {
	const n = 300
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(100*procs + trial)))
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
			err := Do(context.Background(), n, func(_, i int) error {
				calls[i].Add(1)
				time.Sleep(delay[i])
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if lowest == n {
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d trial %d: Do = %v, want nil", procs, trial, err)
				}
			} else if want := fmt.Sprintf("index %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS=%d trial %d: Do = %v, want %q", procs, trial, err, want)
			}
			for i := range calls {
				c := calls[i].Load()
				if c > 1 || (i <= lowest && c != 1) {
					t.Fatalf("GOMAXPROCS=%d trial %d: index %d called %d times (lowest failure %d)", procs, trial, i, c, lowest)
				}
			}
		}
	}
}

// TestDoCancelDrainsPool cancels a fan-out from inside its first call,
// with fn failing from then on, and requires ctx's error, every started
// goroutine gone, and no call started after the cancellation was seen.
func TestDoCancelDrainsPool(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var calls atomic.Int64
		err := Do(ctx, 10000, func(_, i int) error {
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
			t.Fatalf("GOMAXPROCS=%d: Do = %v, want context.Canceled", procs, err)
		}
		// once.Do returns only after cancel has, and ctx is checked
		// before every index, so no worker starts a second call.
		if c := calls.Load(); c > int64(procs) {
			t.Fatalf("GOMAXPROCS=%d: %d calls ran after cancellation", procs, c)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: goroutines leaked: %d before, %d after", procs, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx, 100, func(_, i int) error {
		t.Errorf("fn(%d) called under a cancelled context", i)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Do = %v, want context.Canceled", err)
	}
}

// TestDoWorkerCount checks that Do runs on min(GOMAXPROCS, n) workers,
// the count Workers reports, by the distinct worker ids fn sees. Each
// worker's first call waits until every expected worker has made one, so
// all of them claim work however the goroutines are scheduled; a shared
// deadline bounds the wait when fewer workers exist.
func TestDoWorkerCount(t *testing.T) {
	for _, tc := range []struct{ procs, n, want int }{
		{1, 64, 1},
		{2, 64, 2},
		{4, 64, 4},
		{8, 64, 8},
		{4, 3, 3},
		{8, 1, 1},
	} {
		setProcs(t, tc.procs)
		if got := Workers(tc.n); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: Workers(%d) = %d, want %d", tc.procs, tc.n, got, tc.want)
		}
		var mu sync.Mutex
		seen := map[int]bool{}
		all := make(chan struct{})
		deadline := time.Now().Add(2 * time.Second)
		err := Do(context.Background(), tc.n, func(w, i int) error {
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
			t.Errorf("GOMAXPROCS=%d n=%d: saw workers %v, want %d distinct", tc.procs, tc.n, seen, tc.want)
		}
		for w := range seen {
			if w < 0 || w >= tc.want {
				t.Errorf("GOMAXPROCS=%d n=%d: worker id %d outside [0, %d)", tc.procs, tc.n, w, tc.want)
			}
		}
	}
}

// goid returns the calling goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestDoSingleWorkerInline checks that one worker, whether from
// GOMAXPROCS=1 or from n=1, runs every call on the caller's goroutine and
// starts no goroutine.
func TestDoSingleWorkerInline(t *testing.T) {
	caller := goid()
	before := runtime.NumGoroutine()
	check := func(name string, n int) {
		t.Helper()
		calls := 0
		err := Do(context.Background(), n, func(w, i int) error {
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
	setProcs(t, 8)
	check("n=1", 1)
	setProcs(t, 1)
	check("GOMAXPROCS=1", 50)
}

// TestDoEmpty checks that n ≤ 0 never calls fn and means no workers.
func TestDoEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		if w := Workers(n); w != 0 {
			t.Errorf("Workers(%d) = %d, want 0", n, w)
		}
		err := Do(context.Background(), n, func(_, i int) error {
			t.Errorf("n=%d: fn(%d) called", n, i)
			return nil
		})
		if err != nil {
			t.Errorf("n=%d: Do = %v, want nil", n, err)
		}
	}
}
