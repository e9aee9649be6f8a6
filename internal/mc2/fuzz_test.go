package mc2

import (
	"fmt"
	"math/rand"
	"testing"

	"sbmlcompose/internal/trace"
)

// fuzzTrace decodes a trace of 2–30 rows over A, B and C from fuzz
// bytes: the first byte sets the row count, then each row takes four
// bytes — a time step in [0.05, 0.45] and one value per column, with A
// in [0, 2), B in [-4, 4) and C in {0, ..., 4}. Missing bytes read as
// zero.
func fuzzTrace(data []byte) *trace.Trace {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 2 + int(at(0))%29
	tr := trace.New([]string{"A", "B", "C"})
	t := 0.0
	for i := 0; i < n; i++ {
		o := 1 + 4*i
		t += 0.05 + float64(at(o))/255*0.4
		row := []float64{float64(at(o+1)) / 128, float64(int8(at(o+2))) / 32, float64(at(o+3) % 5)}
		if err := tr.Append(t, row); err != nil {
			panic(err)
		}
	}
	return tr
}

// FuzzCheckDP is the machine-driven form of TestDPMatchesRecursiveHolds:
// for any formula that parses and any small trace, the backward-DP
// evaluator must agree with the recursive reference at every start
// index, on the verdict and on the error, text included: an atom that
// fails on one sample fails exactly the start indexes whose evaluation
// reaches it.
func FuzzCheckDP(f *testing.F) {
	r := rand.New(rand.NewSource(8008))
	for i := 0; i < 48; i++ {
		data := make([]byte, 1+4*30)
		r.Read(data)
		f.Add(randomFormula(r, 3).String(), data)
	}
	f.Add("G({A / C > 0}) | F({1 / (C - 2) < 0})", []byte{6, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		form, err := Parse(src)
		if err != nil {
			return
		}
		tr := fuzzTrace(data)
		p, err := prepare(form, tr.Names)
		if err != nil {
			// Unknown names and bad arities refuse the whole formula up
			// front, before any trace is read.
			return
		}
		ev := &dpEval{tr: tr, state: make([]float64, p.nCols+1), stack: make([]float64, p.maxStack), time: p.timeSlot}
		sat, errs := ev.vec(p.root)
		for i := 0; i < tr.Len(); i++ {
			want, werr := form.holds(tr, i)
			var derr error
			if errs != nil {
				derr = errs[i]
			}
			if fmt.Sprint(derr) != fmt.Sprint(werr) {
				t.Fatalf("%s at index %d: dp error %v, recursive error %v (times %v, values %v)", src, i, derr, werr, tr.Times, tr.Values)
			}
			if derr == nil && sat[i] != want {
				t.Fatalf("%s at index %d: dp=%v recursive=%v (times %v, values %v)", src, i, sat[i], want, tr.Times, tr.Values)
			}
		}
	})
}
