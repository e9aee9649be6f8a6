package obs

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if h.Bounds() != nil {
		t.Fatal("nil histogram bounds must be nil")
	}
	var tr *Trace
	sp := tr.Start("x")
	sp.End()
	if tr.Stages() != nil || tr.Breakdown() != "" {
		t.Fatal("nil trace must record nothing")
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{1, math.NaN()},
	} {
		if _, err := NewHistogram(bounds); err == nil {
			t.Errorf("NewHistogram(%v) accepted invalid bounds", bounds)
		}
	}
}

// Observations exactly on a bucket bound must land in that bucket
// (le is inclusive), and values just above must land in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := MustHistogram([]float64{1, 2, 4})
	h.Observe(0)         // bucket le=1
	h.Observe(1)         // bucket le=1 (inclusive upper bound)
	h.Observe(1.0000001) // bucket le=2
	h.Observe(2)         // bucket le=2
	h.Observe(4)         // bucket le=4
	h.Observe(4.5)       // +Inf overflow
	h.Observe(5)         // +Inf overflow

	got := h.snapshot()
	want := []uint64{2, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Max() != 5 {
		t.Fatalf("max = %g, want 5", h.Max())
	}
	wantSum := 0.0 + 1 + 1.0000001 + 2 + 4 + 4.5 + 5
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	h.Observe(math.NaN())
	if h.Count() != 7 {
		t.Fatal("NaN observation must be dropped")
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := MustHistogram([]float64{1, 2})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	if h.Mean() != 0 {
		t.Fatal("empty mean must be 0")
	}
	h.Observe(1.5)
	// One sample: every quantile is in the (1,2] bucket, clamped to max.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Quantile(q)
		if v < 1 || v > 2 {
			t.Fatalf("quantile(%g) = %g, outside the sample's bucket", q, v)
		}
	}
	if h.Mean() != 1.5 {
		t.Fatalf("mean = %g, want 1.5", h.Mean())
	}
}

// Quantile estimates must land within the bucket that truly contains the
// target rank — that is the interpolation's guaranteed error bound.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	bounds := ExponentialBuckets(0.001, 2, 16)
	h := MustHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over the bucket span, plus a tail beyond the
		// last bound to exercise the overflow bucket.
		v := 0.001 * math.Pow(2, rng.Float64()*16.5)
		samples = append(samples, v)
		h.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sortFloats(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		est := h.Quantile(q)
		exact := sorted[int(q*float64(len(sorted)-1))]
		// The estimate must be within the exact value's bucket: find
		// that bucket and check est lies in [lower, upper].
		lo, hi := bucketRange(bounds, exact, h.Max())
		if est < lo || est > hi {
			t.Errorf("q=%g: estimate %g outside bucket [%g, %g] of exact %g", q, est, lo, hi, exact)
		}
	}
	// p100 never exceeds the observed max.
	if h.Quantile(1) > h.Max() {
		t.Fatalf("p100 %g exceeds max %g", h.Quantile(1), h.Max())
	}
}

func bucketRange(bounds []float64, v, max float64) (float64, float64) {
	lo := 0.0
	for _, b := range bounds {
		if v <= b {
			return lo, b
		}
		lo = b
	}
	return lo, max
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHistogramMergeAssociative(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	mk := func(vals ...float64) *Histogram {
		h := MustHistogram(bounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a := mk(0.5, 3, 9)
	b := mk(1, 2, 2)
	c := mk(7, 100)

	// (a ⊕ b) ⊕ c
	left := mk()
	for _, h := range []*Histogram{a, b} {
		if err := left.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(c); err != nil {
		t.Fatal(err)
	}
	// a ⊕ (b ⊕ c)
	bc := mk()
	for _, h := range []*Histogram{b, c} {
		if err := bc.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	right := mk()
	if err := right.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}

	ls, rs := left.snapshot(), right.snapshot()
	for i := range ls {
		if ls[i] != rs[i] {
			t.Fatalf("bucket %d: %d vs %d", i, ls[i], rs[i])
		}
	}
	if left.Count() != right.Count() || left.Count() != 8 {
		t.Fatalf("counts differ: %d vs %d", left.Count(), right.Count())
	}
	if math.Abs(left.Sum()-right.Sum()) > 1e-9 {
		t.Fatalf("sums differ: %g vs %g", left.Sum(), right.Sum())
	}
	if left.Max() != right.Max() || left.Max() != 100 {
		t.Fatalf("max differ: %g vs %g", left.Max(), right.Max())
	}

	// Bound mismatch must be rejected.
	other := MustHistogram([]float64{1, 3})
	if err := left.Merge(other); err == nil {
		t.Fatal("merge with different bounds must fail")
	}
	shifted := MustHistogram([]float64{1, 2, 4, 9})
	if err := left.Merge(shifted); err == nil {
		t.Fatal("merge with shifted bounds must fail")
	}
}

// Hammer the histogram from many goroutines; run under -race in CI. The
// final count and sum must equal the deterministic totals.
func TestHistogramConcurrentHammer(t *testing.T) {
	h := MustHistogram(LatencyBuckets())
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(float64(1+rng.Intn(1000)) / 1000.0)
				_ = h.Quantile(0.5)
				_ = h.Count()
			}
		}(int64(g))
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var bucketTotal uint64
	for _, c := range h.snapshot() {
		bucketTotal += c
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
	if h.Max() > 1 || h.Max() <= 0 {
		t.Fatalf("max = %g, want in (0, 1]", h.Max())
	}
}

func TestTraceStages(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("parse")
	time.Sleep(time.Millisecond)
	sp.End()
	func() {
		defer tr.Start("compile").End()
	}()
	stages := tr.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(stages))
	}
	if stages[0].Name != "parse" || stages[1].Name != "compile" {
		t.Fatalf("stage order = %q, %q", stages[0].Name, stages[1].Name)
	}
	if stages[0].Duration < time.Millisecond {
		t.Fatalf("parse duration %v too short", stages[0].Duration)
	}
	bd := tr.Breakdown()
	if !strings.Contains(bd, "parse=") || !strings.Contains(bd, "compile=") {
		t.Fatalf("breakdown %q missing stages", bd)
	}

	// StageDurations aggregates repeats and sorts by name.
	tr2 := NewTrace()
	tr2.add(Stage{Name: "b", Duration: 2 * time.Millisecond})
	tr2.add(Stage{Name: "a", Duration: time.Millisecond})
	tr2.add(Stage{Name: "b", Duration: 3 * time.Millisecond})
	agg := tr2.StageDurations()
	if len(agg) != 2 || agg[0].Name != "a" || agg[1].Name != "b" {
		t.Fatalf("aggregated stages = %+v", agg)
	}
	if agg[1].Duration != 5*time.Millisecond {
		t.Fatalf("aggregated b = %v, want 5ms", agg[1].Duration)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("bare context must carry no trace")
	}
	tr := NewTrace()
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatal("context must return the installed trace")
	}
}

// The no-op path — untraced context, nil metrics — must be
// allocation-free: this is what keeps library instrumentation free for
// non-server users, and what the <2% overhead bound of corpus search
// (CorpusSearch/size=100/query=compiled/engine=inverted) rests on.
func TestNoOpPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	var h *Histogram
	var c *Counter
	if n := testing.AllocsPerRun(1000, func() {
		tr := FromContext(ctx)
		sp := tr.Start("stage")
		sp.End()
		h.Observe(1.0)
		c.Inc()
	}); n != 0 {
		t.Fatalf("no-op instrumentation allocates %v per op, want 0", n)
	}
}

// BenchmarkNoOpSpan prices the untraced hot path: one
// FromContext+Start+End round on a context with no trace installed.
// Multiplied by the handful of span sites per corpus search, this is the
// entire cost this package adds to un-instrumented library callers.
func BenchmarkNoOpSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := FromContext(ctx).Start("stage")
		sp.End()
	}
}

// BenchmarkActiveSpan prices the traced path: Start/End against a live
// Trace, including the timestamp reads and the stage append.
func BenchmarkActiveSpan(b *testing.B) {
	ctx := NewContext(context.Background(), NewTrace())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := FromContext(ctx).Start("stage")
		sp.End()
	}
}

// BenchmarkHistogramObserve prices one concurrent-safe Observe on a live
// latency histogram (bucket search + three atomic updates).
func BenchmarkHistogramObserve(b *testing.B) {
	h := MustHistogram(LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
