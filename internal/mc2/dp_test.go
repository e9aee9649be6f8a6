package mc2

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sbmlcompose/internal/sim"
	"sbmlcompose/internal/trace"
)

// randomTrace builds a trace with jittered (strictly increasing) sample
// times and noisy species values, so bounded-window endpoints land between
// samples.
func randomTrace(r *rand.Rand, n int) *trace.Trace {
	tr := trace.New([]string{"A", "B", "C"})
	t := 0.0
	for i := 0; i < n; i++ {
		t += 0.05 + r.Float64()*0.4
		row := []float64{r.Float64() * 2, r.NormFloat64(), float64(r.Intn(5))}
		if err := tr.Append(t, row); err != nil {
			panic(err)
		}
	}
	return tr
}

// randomFormula builds a random formula over A, B, C.
func randomFormula(r *rand.Rand, depth int) Formula {
	if depth <= 0 || r.Intn(4) == 0 {
		atoms := []string{
			"{A > 1}", "{B > 0}", "{C >= 2}", "{A + B < 1.5}", "{C == 0}",
			"{time < 3}", "{A >= 0}",
		}
		return MustParse(atoms[r.Intn(len(atoms))])
	}
	sub := func() Formula { return randomFormula(r, depth-1) }
	switch r.Intn(8) {
	case 0:
		return not{f: sub()}
	case 1:
		return binop{op: "&", l: sub(), r: sub()}
	case 2:
		return binop{op: "|", l: sub(), r: sub()}
	case 3:
		return binop{op: "->", l: sub(), r: sub()}
	case 4:
		return binop{op: "U", l: sub(), r: sub()}
	case 5:
		return temporal{op: "X", f: sub()}
	case 6:
		ops := []string{"G", "F"}
		return temporal{op: ops[r.Intn(2)], f: sub()}
	default:
		ops := []string{"G", "F"}
		lo := float64(r.Intn(4)) * 0.5
		hi := lo + float64(r.Intn(5))*0.75
		return temporal{op: ops[r.Intn(2)], bounded: true, lo: lo, hi: hi, f: sub()}
	}
}

// TestDPMatchesRecursiveHolds pins the backward-DP evaluator against the
// recursive reference at every start index, on randomized traces and
// formulae.
func TestDPMatchesRecursiveHolds(t *testing.T) {
	r := rand.New(rand.NewSource(8008))
	for trial := 0; trial < 300; trial++ {
		tr := randomTrace(r, 2+r.Intn(30))
		f := randomFormula(r, 3)
		p, err := prepare(f, tr.Names)
		if err != nil {
			t.Fatalf("trial %d: prepare(%s): %v", trial, f, err)
		}
		ev := &dpEval{tr: tr, state: make([]float64, p.nCols+1), stack: make([]float64, p.maxStack), time: p.timeSlot}
		sat, errs := ev.vec(p.root)
		if errs != nil {
			t.Fatalf("trial %d: dp(%s): %v", trial, f, errs)
		}
		for i := 0; i < tr.Len(); i++ {
			want, err := f.holds(tr, i)
			if err != nil {
				t.Fatalf("trial %d: holds(%s, %d): %v", trial, f, i, err)
			}
			if sat[i] != want {
				t.Fatalf("trial %d: %s at index %d: dp=%v recursive=%v (times %v)",
					trial, f, i, sat[i], want, tr.Times)
			}
		}
	}
}

// TestDPNegativeLowerBound exercises windows whose lower bound precedes the
// start index; the scan never looks before its own start.
func TestDPNegativeLowerBound(t *testing.T) {
	tr := ramp(t)
	for _, src := range []string{"G[-5,2]({A >= 0.3})", "F[-5,0.5]({A > 0.55})"} {
		f := MustParse(src)
		got, err := Check(tr, f)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := f.holds(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: dp=%v recursive=%v", src, got, want)
		}
	}
}

func TestWilsonIntervalBounds(t *testing.T) {
	// Degenerate p̂ = 1: the old normal approximation returned a zero-width
	// interval; Wilson must not.
	est := newEstimate(20, 20)
	if est.Probability != 1 {
		t.Fatalf("probability = %g", est.Probability)
	}
	if est.HalfWidth <= 0 {
		t.Errorf("p=1: half width = %g, want > 0", est.HalfWidth)
	}
	if est.Hi != 1 {
		t.Errorf("p=1: hi = %g, want 1", est.Hi)
	}
	if est.Lo <= 0.7 || est.Lo >= 1 {
		t.Errorf("p=1, n=20: lo = %g, want within (0.7, 1)", est.Lo)
	}
	// Degenerate p̂ = 0 mirrors it.
	est = newEstimate(0, 20)
	if est.Lo != 0 || est.Hi <= 0 || est.Hi >= 0.3 || est.HalfWidth <= 0 {
		t.Errorf("p=0, n=20: interval [%g, %g]", est.Lo, est.Hi)
	}
	// Mid-range agrees with the closed-form Wilson formula.
	est = newEstimate(30, 60)
	const z = 1.96
	n, p := 60.0, 0.5
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	hw := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	if math.Abs(est.Lo-(center-hw)) > 1e-12 || math.Abs(est.Hi-(center+hw)) > 1e-12 {
		t.Errorf("p=0.5: interval [%g, %g], want [%g, %g]", est.Lo, est.Hi, center-hw, center+hw)
	}
	// The interval always contains the point estimate.
	for _, k := range []int{0, 1, 7, 19, 20} {
		est := newEstimate(k, 20)
		if est.Probability < est.Lo-1e-12 || est.Probability > est.Hi+1e-12 {
			t.Errorf("k=%d: p̂=%g outside [%g, %g]", k, est.Probability, est.Lo, est.Hi)
		}
	}
}

// TestProbabilityDeterministicAcrossWorkers pins the estimator's
// GOMAXPROCS invariance: par.Do runs one worker per proc, and the estimate
// at 2, 4 and 8 procs must equal the one at 1 bitwise (run under -race in
// CI).
func TestProbabilityDeterministicAcrossWorkers(t *testing.T) {
	m := decayModel()
	f := MustParse("F[1,1]({A < 61}) & G({A + B == 100})")
	opts := sim.Options{T0: 0, T1: 1, Step: 0.25, Seed: 10}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var base Estimate
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		est, err := probability(t, m, f, 40, opts)
		if err != nil {
			t.Fatal(err)
		}
		if procs == 1 {
			base = est
			continue
		}
		if est != base {
			t.Errorf("GOMAXPROCS=%d: estimate %+v differs from GOMAXPROCS=1's %+v", procs, est, base)
		}
	}
}

// TestProbabilityMatchesSerialReference cross-checks the parallel compiled
// pipeline against a from-scratch serial loop over the reference simulator
// and recursive checker.
func TestProbabilityMatchesSerialReference(t *testing.T) {
	m := decayModel()
	f := MustParse("F[1,1]({A < 61})")
	opts := sim.Options{T0: 0, T1: 1, Step: 0.25, Seed: 10}
	const runs = 25
	satisfied := 0
	for i := 0; i < runs; i++ {
		runOpts := opts
		runOpts.Seed = opts.Seed + int64(i)
		tr, err := sim.ReferenceSSA(m, runOpts)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := f.holds(tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			satisfied++
		}
	}
	est, err := probability(t, m, f, runs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(satisfied) / runs; est.Probability != want {
		t.Errorf("parallel compiled estimate %g, serial reference %g", est.Probability, want)
	}
}

func BenchmarkCheckDP(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	tr := randomTrace(r, 400)
	f := MustParse("G({A >= 0}) & ({B > -3} U {C >= 4}) & F[0,50]({A > 1.5})")
	p, err := prepare(f, tr.Names)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.check(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckRecursive(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	tr := randomTrace(r, 400)
	f := MustParse("G({A >= 0}) & ({B > -3} U {C >= 4}) & F[0,50]({A > 1.5})")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.holds(tr, 0); err != nil {
			b.Fatal(err)
		}
	}
}
