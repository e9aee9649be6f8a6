package corpus

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
)

// This file is the exact oracle for the greedy assignment in score.go: a
// maximum-weight assignment by the Hungarian algorithm, and the per-query
// upper bound that exact pruning would rank candidates by.

// maxAssignment returns the largest total weight of a one-to-one
// assignment of the rows of the square matrix w to its columns, a zero
// weight standing for no cell. It is the Hungarian algorithm with
// potentials on the costs -w, O(n³).
func maxAssignment(w [][]float64) float64 {
	n := len(w)
	u, v := make([]float64, n+1), make([]float64, n+1)
	// p[j] is the row matched to column j (1-based, 0 for none); way[j]
	// is the column before j on the current augmenting path.
	p, way := make([]int, n+1), make([]int, n+1)
	minv, used := make([]float64, n+1), make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j], used[j] = math.Inf(1), false
		}
		for p[j0] != 0 {
			used[j0] = true
			i0, delta, j1 := p[j0], math.Inf(1), 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				if cur := -w[i0-1][j-1] - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		total += w[p[j]-1][j-1]
	}
	return total
}

// assignBounds returns, for a candidate's score matrix at cutoff, the sum
// over query components of each one's best cell weight (the bound) and
// the maximum-weight assignment (the optimum).
func assignBounds(c *candidate, cutoff float64) (bound, optimum float64) {
	rows, cols := map[uint32]int{}, map[uint32]int{}
	var kept []cell
	for _, cl := range c.cells {
		if core.KeyTier(cl.tier).Weight() < cutoff {
			continue
		}
		kept = append(kept, cl)
		if _, ok := rows[cl.q]; !ok {
			rows[cl.q] = len(rows)
		}
		if _, ok := cols[cl.t]; !ok {
			cols[cl.t] = len(cols)
		}
	}
	// Square, padded with zeros: no cell.
	w := make([][]float64, max(len(rows), len(cols)))
	for r := range w {
		w[r] = make([]float64, len(w))
	}
	for _, cl := range kept {
		r, col := rows[cl.q], cols[cl.t]
		w[r][col] = max(w[r][col], core.KeyTier(cl.tier).Weight())
	}
	for r := range len(rows) {
		bound += slices.Max(w[r])
	}
	return bound, maxAssignment(w)
}

// checkAssignBounds asserts bound ≥ optimum ≥ greedy ≥ optimum/2 on every
// candidate of cq in c at cutoff (greedy matching is a 1/2-approximation
// of the maximum-weight one) and returns the candidates' optimum and
// greedy scores.
func checkAssignBounds(t testing.TB, c *Corpus, cq *CompiledQuery, cutoff float64) (optimum, greedy []float64) {
	t.Helper()
	cands, err := c.retrieve(context.Background(), cq, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	s := newScorer(cq)
	for i := range cands {
		b, o := assignBounds(&cands[i], cutoff)
		g := s.assign(&cands[i], cutoff).Score
		if !(b >= o && o >= g && 2*g >= o) {
			t.Fatalf("candidate %s at cutoff %g: bound %g, optimum %g, greedy %g", cands[i].e.id, cutoff, b, o, g)
		}
		optimum, greedy = append(optimum, o), append(greedy, g)
	}
	return optimum, greedy
}

// TestMaxAssignmentMatchesBruteForce checks the Hungarian oracle against
// every permutation on small random matrices.
func TestMaxAssignmentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(5))
			}
		}
		var best func(i int, usedCols []bool) float64
		best = func(i int, usedCols []bool) float64 {
			if i == n {
				return 0
			}
			b := 0.0
			for j := range n {
				if !usedCols[j] {
					usedCols[j] = true
					b = max(b, w[i][j]+best(i+1, usedCols))
					usedCols[j] = false
				}
			}
			return b
		}
		if got, want := maxAssignment(w), best(0, make([]bool, n)); got != want {
			t.Fatalf("trial %d: %v: Hungarian %g, brute force %g", trial, w, got, want)
		}
	}
}

// TestAssignBoundsSeeAGreedyGap pins that the oracle can tell greedy from
// optimal: on q0–t0 exact, q0–t1 math and q1–t0 synonym, greedy takes the
// exact cell and scores 4, the optimum pairs q0–t1 and q1–t0 for 5, and
// the bound is 4+3.
func TestAssignBoundsSeeAGreedyGap(t *testing.T) {
	cq := &CompiledQuery{comps: []string{"q0", "q1"}, denom: 2}
	c := candidate{e: &entry{id: "m", comps: "t0t1", compEnd: []uint32{2, 4}}, cells: []cell{
		{q: 0, t: 0, tier: uint8(core.TierExactID)},
		{q: 0, t: 1, tier: uint8(core.TierMath)},
		{q: 1, t: 0, tier: uint8(core.TierSynonym)},
	}}
	bound, optimum := assignBounds(&c, 0)
	greedy := newScorer(cq).assign(&c, 0).Score
	if bound != 7 || optimum != 5 || greedy != 4 {
		t.Fatalf("bound %g, optimum %g, greedy %g; want 7, 5, 4", bound, optimum, greedy)
	}
}

// TestGreedyAssignmentGapOnCorpus187 scores every Corpus187 model as a
// query against the whole collection and compares each candidate's
// greedy score with the maximum-weight assignment. It asserts the bounds
// and the zero gap README reports, and logs the gap (go test -v -run
// Gap ./internal/corpus).
func TestGreedyAssignmentGapOnCorpus187(t *testing.T) {
	models := biomodels.Corpus187()
	opts := testOptions(4)
	c := New(opts)
	fill(t, c, models)
	queries := compileQueries(t, opts, models)

	var cands, short int
	var sumGap, worstGap float64
	for _, cq := range queries {
		optimum, greedy := checkAssignBounds(t, c, cq, 0)
		for i := range optimum {
			cands++
			if greedy[i] < optimum[i] {
				short++
				gap := (optimum[i] - greedy[i]) / optimum[i]
				sumGap += gap
				worstGap = max(worstGap, gap)
			}
		}
	}
	if cands == 0 {
		t.Fatal("no candidates scored")
	}
	t.Logf("%d queries, %d candidates: greedy below optimum on %d; relative gap mean %.4f%%, worst %.2f%%",
		len(queries), cands, short, 100*sumGap/float64(cands), 100*worstGap)
	// README reports greedy as exact on this collection.
	if short > 0 {
		t.Fatalf("greedy fell below the optimum on %d of %d candidates; README says it never does", short, cands)
	}
}
