package corpus

import (
	"cmp"
	"slices"
	"strings"

	"sbmlcompose/internal/core"
)

// This file implements the scoring half of repository matching: the sparse
// component score matrix a candidate accumulates during retrieval, and the
// greedy maximum-weight bipartite assignment that turns the matrix into a
// ranked Hit. Greedy assignment on a tier-weighted matrix is the standard
// repository-matcher shape (score matrix + cutoff + assignment); it is
// deterministic given a total order on cells, which the weight/id sort
// below provides.

// cell is one shared key between the query and a candidate: query
// component q (an index into CompiledQuery.comps) against the candidate's
// component t (an index into its entry's component table), on the weaker
// of the two keys' tiers, through a key of the candidate's kind.
type cell struct {
	q, t       uint32
	tier, kind uint8
}

// candidate is one corpus model retrieved for the query, with the cells
// its postings share with the query in retrieval order. One (q, t) pair
// may appear in several cells; the matrix cell is the strongest of them,
// the first retrieved on a tie.
type candidate struct {
	e     *entry
	slot  uint32
	cells []cell
}

// scorer is one scoring worker's scratch space, reused across candidates.
type scorer struct {
	cq           *CompiledQuery
	usedQ, usedT []bool
	picked       []cell
}

func newScorer(cq *CompiledQuery) *scorer {
	return &scorer{cq: cq, usedQ: make([]bool, len(cq.comps))}
}

// assign runs the greedy maximum-weight one-to-one assignment over the
// candidate's matrix and returns its Hit. Cells are visited in a total
// order — weight descending, then query id, then target id, then
// retrieval order — so the assignment (and therefore every search ranking
// built on it) is a pure function of the matrix, independent of shard
// layout, worker count and map iteration order. Visiting a pair's cells
// strongest first means its first cell is the matrix cell and the rest
// find the pair used. Cells below cutoff are dropped, the score-matrix
// cutoff of repository matchers.
func (s *scorer) assign(c *candidate, cutoff float64) Hit {
	e := c.e
	cells := slices.DeleteFunc(c.cells, func(cl cell) bool { return core.KeyTier(cl.tier).Weight() < cutoff })
	// Tiers ascend as weights descend, and query indexes ascend with
	// query ids.
	slices.SortStableFunc(cells, func(a, b cell) int {
		if a.tier != b.tier {
			return cmp.Compare(a.tier, b.tier)
		}
		if a.q != b.q {
			return cmp.Compare(a.q, b.q)
		}
		if a.t == b.t {
			return 0
		}
		return strings.Compare(e.comp(a.t), e.comp(b.t))
	})
	if n := len(e.compEnd); cap(s.usedT) < n {
		s.usedT = make([]bool, n)
	} else {
		s.usedT = s.usedT[:n]
	}
	h := Hit{ModelID: e.id}
	picked := s.picked[:0]
	for _, cl := range cells {
		if s.usedQ[cl.q] || s.usedT[cl.t] {
			continue
		}
		s.usedQ[cl.q] = true
		s.usedT[cl.t] = true
		h.Score += core.KeyTier(cl.tier).Weight()
		picked = append(picked, cl)
	}
	h.Matched = len(picked)
	if q := s.cq.denom; q > 0 {
		h.Coverage = float64(h.Matched) / float64(q)
	}
	// Each query component is assigned at most once, so query index
	// order is the evidence order: query id, then target id.
	slices.SortFunc(picked, func(a, b cell) int { return cmp.Compare(a.q, b.q) })
	if len(picked) > 0 {
		h.Evidence = make([]Evidence, len(picked))
	}
	for i, cl := range picked {
		tier := core.KeyTier(cl.tier)
		h.Evidence[i] = Evidence{
			Query:  s.cq.comps[cl.q],
			Target: e.comp(cl.t),
			Kind:   core.KindName(cl.kind),
			Tier:   tier.String(),
			Score:  tier.Weight(),
		}
		s.usedQ[cl.q] = false
		s.usedT[cl.t] = false
	}
	s.picked = picked
	return h
}
