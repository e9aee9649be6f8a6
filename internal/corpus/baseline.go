package corpus

import (
	"context"
	"sort"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
)

// SearchAllPairs is the naive repository search the inverted index
// replaces: compose the query pairwise against every model
// (core.MatchModels) and rank by the number of identified component
// correspondences. It exists as the benchmark baseline — O(corpus) full
// pairwise compositions per query — and as an independent oracle for the
// retrieval tests; it shares no code with Corpus.Search. ctx is checked
// by every pairwise match.
func SearchAllPairs(ctx context.Context, models []*sbml.Model, query *sbml.Model, opts core.Options, topK int) ([]Hit, error) {
	hits := make([]Hit, 0, len(models))
	for _, m := range models {
		matches, err := core.MatchModels(ctx, m, query, opts)
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			continue
		}
		hits = append(hits, Hit{ModelID: m.ID, Score: float64(len(matches)), Matched: len(matches)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ModelID < hits[j].ModelID
	})
	if topK >= 0 && len(hits) > topK {
		hits = hits[:topK]
	}
	return hits, nil
}
