// Package par is the bounded fan-out behind every parallel batch in the
// system: SSA ensembles and Monte Carlo model checking, store recovery's
// parse path and corpus scoring.
// Each of those is n independent units of work whose results land in
// per-index slots, so the schedule never changes the answer.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(w, i) for every i in [0, n) and returns once every call it
// started has returned; no goroutine outlives it.
//
// workers ≤ 0 means GOMAXPROCS, and the count is capped at n. The caller's
// goroutine is worker 0, so a single worker runs inline and starts no
// goroutine. w ∈ [0, workers) names the worker making a call, and one
// worker's calls never overlap, so callers may keep per-worker scratch.
//
// Workers claim contiguous chunks of indexes from a shared counter, about
// four per worker: work stealing, so no worker idles behind a run of heavy
// units, at one atomic per chunk rather than per index. (Eight chunks per
// worker scored corpus candidates measurably slower at two procs.)
//
// ctx is checked before each index; once it is done no further index
// starts and Do returns ctx's error, whatever fn returned. Otherwise Do
// returns the error of the lowest failing index: indexes above a failure
// are skipped and those below it still run, so the error is the one a
// serial loop would have met first, whatever the scheduling.
func Do(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	p := &pool{ctx: ctx, fn: fn, n: n, chunk: max(1, n/(workers*4))}
	p.bound.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			p.work(w)
		}()
	}
	p.work(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.err
}

// pool is the state Do's workers share.
type pool struct {
	ctx      context.Context
	fn       func(w, i int) error
	n, chunk int
	bound    atomic.Int64 // lowest failing index so far, n if none
	mu       sync.Mutex   // serializes failures: bound's stores and err
	err      error        // the error at index bound
	next     atomic.Int64 // first unclaimed index
}

func (p *pool) work(w int) {
	for {
		lo := int(p.next.Add(int64(p.chunk))) - p.chunk
		if lo >= p.n {
			return
		}
		for i := lo; i < min(lo+p.chunk, p.n); i++ {
			// Claims only grow, so once this index is past a failure
			// every later one is too.
			if p.ctx.Err() != nil || int64(i) > p.bound.Load() {
				return
			}
			if err := p.fn(w, i); err != nil {
				p.fail(i, err)
			}
		}
	}
}

func (p *pool) fail(i int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int64(i) < p.bound.Load() {
		p.bound.Store(int64(i))
		p.err = err
	}
}
