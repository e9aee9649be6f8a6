package core

import (
	"context"
	"io"
	"sync"
	"time"

	"sbmlcompose/internal/par"
	"sbmlcompose/internal/sbml"
)

// Parallel batch composition: a balanced binary reduction over the input
// models, executed level by level, each level one par.Do fan-out. Treating a
// batch of biochemical networks as independently mergeable subnetworks is
// standard (Holme et al., "Subnetwork hierarchies of biochemical
// pathways"); here it buys multi-core scaling for order-insensitive
// assembly. The merge tree is a pure function of the input order — pair
// (0,1), (2,3), …, odd leftover carried to the next level — so the result
// is reproducible for any worker count: scheduling decides only when each
// node runs, never which nodes exist or how their outputs combine.
//
// Every tree node owns its submodel (leaves compile a private clone), so a
// merge folds the right child's model straight into the left child's
// compiled accumulator — no re-cloning, no index rebuild — and the right
// accumulator is discarded.

// reduceNode is one element of the reduction: a compiled accumulator for
// the subtree's merged model plus the subtree's combined report.
type reduceNode struct {
	acc *CompiledModel
	res *Result
}

// composeAllParallel reduces the models pairwise until one result remains.
// Callers guarantee len(models) >= 2 and no nil entries. Cancellation is
// checked by par.Do before each tree node (and between component families
// inside a node): a cancelled call waits for the nodes already running,
// discards all partial accumulators — none of which are reachable by the
// caller — and returns ctx's error. Nodes fail only on cancellation, so no
// other error policy is needed.
func composeAllParallel(ctx context.Context, models []*sbml.Model, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Log != nil {
		// Merge nodes run concurrently; serialize their warning lines.
		opts.Log = &syncWriter{w: opts.Log}
	}

	// Leaf compilation is itself the per-model key precomputation
	// (synonym expansion, math patterns, unit vectors), so spread it over
	// the workers too.
	level := make([]*reduceNode, len(models))
	err := par.Do(ctx, len(models), opts.Workers, func(_, i int) error {
		start := time.Now()
		acc := compile(models[i].Clone(), opts)
		res := &Result{Model: acc.model, Mappings: map[string]string{}, Renames: map[string]string{}}
		res.Stats.Duration = time.Since(start)
		level[i] = &reduceNode{acc: acc, res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for len(level) > 1 {
		pairs := len(level) / 2
		next := make([]*reduceNode, pairs, pairs+1)
		err := par.Do(ctx, pairs, opts.Workers, func(_, i int) error {
			node, err := mergeReduceNodes(ctx, level[2*i], level[2*i+1])
			if err != nil {
				return err
			}
			next[i] = node
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	res := level[0].res
	// Node durations overlap when they run concurrently, so the summed
	// per-node times are CPU time, not elapsed time; report the documented
	// wall clock instead.
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// mergeReduceNodes folds the right subtree's model into the left subtree's
// compiled accumulator and combines the reports. Both children are owned by
// the reduction, so nothing is cloned; the right accumulator dies here. A
// mid-merge cancellation abandons the (now inconsistent) left accumulator,
// which is safe because the whole reduction is discarded with it.
func mergeReduceNodes(ctx context.Context, left, right *reduceNode) (*reduceNode, error) {
	start := time.Now()
	// Figure 5 lines 1-2: composing with an empty model returns the other —
	// like pairwise Compose, an empty left side adopts the right even when
	// both are empty (the right's id and name win).
	if left.acc.model.ComponentCount() == 0 {
		node := &Result{Model: right.acc.model, Mappings: map[string]string{}, Renames: map[string]string{}}
		node.Stats.Added = right.acc.model.ComponentCount()
		node.Stats.Duration = time.Since(start)
		return &reduceNode{acc: right.acc, res: combineNode(left.res, right.res, node)}, nil
	}
	if right.acc.model.ComponentCount() == 0 {
		node := &Result{Model: left.acc.model, Mappings: map[string]string{}, Renames: map[string]string{}}
		node.Stats.Duration = time.Since(start)
		return &reduceNode{acc: left.acc, res: combineNode(left.res, right.res, node)}, nil
	}

	step := &Result{Mappings: map[string]string{}, Renames: map[string]string{}}
	cs := newStepComposer(left.acc, right.acc.model, step)
	// The right accumulator's values map is flushed (leaf compiles and
	// child folds both settle it), so it already equals the scan.
	cs.secondValues = right.acc.values
	if err := cs.runPipelineCtx(ctx); err != nil {
		return nil, err
	}
	// The accumulator survives into the parent merge; repair any math keys
	// this step's renames rewrote and settle its initial-value map.
	cs.repairMathKeys()
	left.acc.flushValues()
	step.Model = left.acc.model
	step.Stats.Duration = time.Since(start)
	return &reduceNode{acc: left.acc, res: combineNode(left.res, right.res, step)}, nil
}

// combineNode merges two child results with the result of composing their
// models. Reporting is deterministic: warnings and matches concatenate
// left, right, node; on a key collision across the three map sources the
// same precedence applies. Ids translated inside the right subtree chain
// through the node's own translation, so every reported mapping or rename
// ends at an id that exists in the combined model.
func combineNode(left, right, node *Result) *Result {
	trans := func(id string) string {
		if to, ok := node.Mappings[id]; ok {
			return to
		}
		if to, ok := node.Renames[id]; ok {
			return to
		}
		return id
	}
	out := &Result{
		Model:    node.Model,
		Warnings: make([]Warning, 0, len(left.Warnings)+len(right.Warnings)+len(node.Warnings)),
		Matches:  make([]Match, 0, len(left.Matches)+len(right.Matches)+len(node.Matches)),
		Mappings: make(map[string]string, len(left.Mappings)+len(right.Mappings)+len(node.Mappings)),
		Renames:  make(map[string]string, len(left.Renames)+len(right.Renames)+len(node.Renames)),
	}
	out.Warnings = append(out.Warnings, left.Warnings...)
	out.Warnings = append(out.Warnings, right.Warnings...)
	out.Warnings = append(out.Warnings, node.Warnings...)

	out.Matches = append(out.Matches, left.Matches...)
	for _, m := range right.Matches {
		// A right-subtree match's First id lives in the node's second
		// model; the node merge may have remapped it.
		out.Matches = append(out.Matches, Match{First: trans(m.First), Second: m.Second})
	}
	out.Matches = append(out.Matches, node.Matches...)

	addAbsent := func(dst map[string]string, k, v string) {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
	for k, v := range left.Mappings {
		addAbsent(out.Mappings, k, v)
	}
	for k, v := range right.Mappings {
		addAbsent(out.Mappings, k, trans(v))
	}
	for k, v := range node.Mappings {
		addAbsent(out.Mappings, k, v)
	}
	for k, v := range left.Renames {
		addAbsent(out.Renames, k, v)
	}
	for k, v := range right.Renames {
		addAbsent(out.Renames, k, trans(v))
	}
	for k, v := range node.Renames {
		addAbsent(out.Renames, k, v)
	}

	out.Stats.Merged = left.Stats.Merged + right.Stats.Merged + node.Stats.Merged
	// Added is a state delta, not an event count: every component the right
	// subtree added is re-presented to the node merge and counted there, so
	// only the left spine's additions accumulate — keeping the fold
	// invariant final count = first model's count + Added.
	out.Stats.Added = left.Stats.Added + node.Stats.Added
	out.Stats.Renamed = left.Stats.Renamed + right.Stats.Renamed + node.Stats.Renamed
	out.Stats.Conflicts = left.Stats.Conflicts + right.Stats.Conflicts + node.Stats.Conflicts
	out.Stats.Duration = left.Stats.Duration + right.Stats.Duration + node.Stats.Duration
	return out
}

// syncWriter serializes concurrent writes to the user's log writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
