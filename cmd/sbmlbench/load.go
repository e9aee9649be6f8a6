package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one operation a loop issues. verify runs after the response
// is fully read, outside the timed span; acked runs once it passed.
type request struct {
	op     string
	method string
	path   string
	body   []byte
	verify func(body []byte) error
	acked  func()
	// key ties a store persist span to this request ("add:<id>").
	key string
}

// newClient is the load generator's HTTP client: every request of a
// workload shares conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		},
		Timeout: time.Minute,
	}
}

// generator issues requests against one base URL and records what happened.
type generator struct {
	base   string
	client *http.Client
	spans  *spanLog
	// rid numbers requests; every request carries its X-Request-Id.
	rid atomic.Uint64
}

// do issues rq and returns when it was sent and when its response was
// fully read. A transport error, a non-2xx status and a failed
// verification are all errors.
func (g *generator) do(ctx context.Context, rq request) (sent, done time.Time, err error) {
	id := "b" + strconv.FormatUint(g.rid.Add(1), 10)
	req, err := http.NewRequestWithContext(ctx, rq.method, g.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return sent, done, err
	}
	req.Header.Set("X-Request-Id", id)
	tracing := g.spans.active()
	if tracing && rq.key != "" {
		g.spans.bind(rq.key, id)
	}
	sent = time.Now()
	resp, err := g.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done = time.Now()
	if tracing {
		g.spans.add(span{ID: id, Name: "bench.request", Start: sent, End: done, Attr: rq.op})
	}
	switch {
	case err != nil:
	case resp.StatusCode/100 != 2:
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	case rq.verify != nil:
		err = rq.verify(body)
	}
	if err != nil {
		return sent, done, fmt.Errorf("%s %s: %w", rq.method, rq.path, err)
	}
	if rq.acked != nil {
		rq.acked()
	}
	return sent, done, nil
}

// recorder collects raw per-request latencies by operation, plus the
// attempted and failed counts. Failed requests count against the
// attempts and never contribute a latency.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // op → ms
	attempted int64
	failed    int64
	firstErr  error
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (r *recorder) record(op string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat[op] = append(r.lat[op], float64(d.Nanoseconds())/1e6)
}

// all returns every successful latency, across operations.
func (r *recorder) all() []float64 {
	var out []float64
	for _, op := range sortedKeys(r.lat) {
		out = append(out, r.lat[op]...)
	}
	return out
}

func (r *recorder) ok() int64 { return r.attempted - r.failed }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile is the exact nearest-rank q-quantile of raw samples: the
// smallest sample with at least q of all samples at or below it.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// picker draws operations from a mix, with a Zipf draw over the hot
// bodies. Each loop client owns one, seeded from the run seed.
type picker struct {
	rng   *rand.Rand
	slots []string
	zipf  *rand.Zipf
}

func newPicker(w workload, seed int64) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed))}
	for _, s := range w.Mix {
		for i := 0; i < s.Pct; i++ {
			p.slots = append(p.slots, s.Op)
		}
	}
	if w.HotBodies > 1 {
		p.zipf = rand.NewZipf(p.rng, w.ZipfS, 1, uint64(w.HotBodies-1))
	}
	return p
}

func (p *picker) op() string { return p.slots[p.rng.Intn(len(p.slots))] }

func (p *picker) hot() int {
	if p.zipf == nil {
		return 0
	}
	return int(p.zipf.Uint64())
}

// closedLoop runs clients back-to-back request loops for dur, each client
// drawing its next request from next with its own picker.
func closedLoop(ctx context.Context, g *generator, w workload, seed int64, dur time.Duration, next func(*picker) request) (*recorder, time.Duration) {
	rec := newRecorder()
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(p *picker) {
			defer wg.Done()
			for ctx.Err() == nil {
				rq := next(p)
				// The request itself runs on the parent context: the loop's
				// deadline stops new requests, never cuts one in flight.
				sent, done, err := g.do(context.WithoutCancel(ctx), rq)
				rec.record(rq.op, done.Sub(sent), err)
			}
		}(newPicker(w, seed+int64(c)))
	}
	wg.Wait()
	return rec, time.Since(start)
}

// step is one rung of the open-loop ladder.
type step struct {
	rate float64
	rec  *recorder
	// lags are how late the generator sent each request, in ms.
	lags []float64
	// backlog is the requests sent but not answered when the step ended.
	backlog int64
}

// openLoop offers each rate for stepDur in turn. Request n of a step is
// due at the step's start plus n/rate; its latency runs from that due
// time, so a stall charges every request queued behind it.
func openLoop(ctx context.Context, g *generator, w workload, seed int64, stepDur time.Duration, next func(*picker) request) ([]step, time.Duration) {
	p := newPicker(w, seed)
	steps := make([]step, len(w.RatesRPS))
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	start := time.Now()
	for k, rate := range w.RatesRPS {
		st := &steps[k]
		st.rate, st.rec = rate, newRecorder()
		stepStart := start.Add(time.Duration(k) * stepDur)
		stepEnd := stepStart.Add(stepDur)
		for n := 0; ; n++ {
			due := stepStart.Add(time.Duration(float64(n) / rate * float64(time.Second)))
			if !due.Before(stepEnd) || ctx.Err() != nil {
				break
			}
			time.Sleep(time.Until(due))
			st.lags = append(st.lags, float64(time.Since(due).Nanoseconds())/1e6)
			rq := next(p)
			inFlight.Add(1)
			wg.Add(1)
			go func(rec *recorder) {
				defer wg.Done()
				_, done, err := g.do(context.WithoutCancel(ctx), rq)
				rec.record(rq.op, done.Sub(due), err)
				inFlight.Add(-1)
			}(st.rec)
		}
		time.Sleep(time.Until(stepEnd))
		st.backlog = inFlight.Load()
	}
	wg.Wait()
	return steps, time.Since(start)
}
