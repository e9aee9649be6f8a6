package corpus

import (
	"sort"

	"sbmlcompose/internal/core"
)

// This file implements the scoring half of repository matching: the sparse
// component score matrix a candidate accumulates during retrieval, and the
// greedy maximum-weight bipartite assignment that turns the matrix into a
// ranked Hit. Greedy assignment on a tier-weighted matrix is the standard
// repository-matcher shape (score matrix + cutoff + assignment); it is
// deterministic given a total order on cells, which the weight/id sort
// below provides.

// cellKey addresses one score-matrix cell: a (query component, candidate
// component) pair.
type cellKey struct {
	q, t string
}

// cellVal is the cell's best evidence so far.
type cellVal struct {
	tier core.KeyTier
	kind string
}

// candidate is one corpus model retrieved for the query, with its sparse
// score matrix.
type candidate struct {
	modelID string
	cells   map[cellKey]cellVal
}

// add folds one shared key into the matrix, keeping the strongest tier per
// cell: qk is the query's key, tk the candidate's posted key. The
// effective tier is the weaker of the two (they agree for symmetric keys;
// the max guards asymmetric ones).
func (c *candidate) add(qk, tk core.ComponentKey) {
	tier := max(qk.Tier, tk.Tier)
	k := cellKey{q: qk.Component, t: tk.Component}
	if c.cells == nil {
		c.cells = make(map[cellKey]cellVal)
	}
	if v, ok := c.cells[k]; !ok || tier < v.tier {
		c.cells[k] = cellVal{tier: tier, kind: tk.Kind}
	}
}

// assign runs the greedy maximum-weight one-to-one assignment over the
// matrix and returns the candidate's Hit. Cells are visited in a total
// order — weight descending, then query id, then target id — so the
// assignment (and therefore every search ranking built on it) is a pure
// function of the matrix, independent of shard layout, worker count and
// map iteration order. Cells below cutoff are dropped, the score-matrix
// cutoff of repository matchers.
func (c *candidate) assign(queryComponents int, cutoff float64) Hit {
	type cell struct {
		key    cellKey
		val    cellVal
		weight float64
	}
	cells := make([]cell, 0, len(c.cells))
	for k, v := range c.cells {
		w := v.tier.Weight()
		if w < cutoff {
			continue
		}
		cells = append(cells, cell{key: k, val: v, weight: w})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].weight != cells[j].weight {
			return cells[i].weight > cells[j].weight
		}
		if cells[i].key.q != cells[j].key.q {
			return cells[i].key.q < cells[j].key.q
		}
		return cells[i].key.t < cells[j].key.t
	})
	usedQ := make(map[string]bool, len(cells))
	usedT := make(map[string]bool, len(cells))
	h := Hit{ModelID: c.modelID}
	for _, cl := range cells {
		if usedQ[cl.key.q] || usedT[cl.key.t] {
			continue
		}
		usedQ[cl.key.q] = true
		usedT[cl.key.t] = true
		h.Score += cl.weight
		h.Matched++
		h.Evidence = append(h.Evidence, Evidence{
			Query:  cl.key.q,
			Target: cl.key.t,
			Kind:   cl.val.kind,
			Tier:   cl.val.tier.String(),
			Score:  cl.weight,
		})
	}
	if queryComponents > 0 {
		h.Coverage = float64(h.Matched) / float64(queryComponents)
	}
	sort.Slice(h.Evidence, func(i, j int) bool {
		if h.Evidence[i].Query != h.Evidence[j].Query {
			return h.Evidence[i].Query < h.Evidence[j].Query
		}
		return h.Evidence[i].Target < h.Evidence[j].Target
	})
	return h
}
