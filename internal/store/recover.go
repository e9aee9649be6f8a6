package store

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
)

// This file implements the recovery parse path and its parallelism.
// Recovery has two kinds of work: decoding (snapshot entries, WAL
// frames), which is cheap and stays sequential, and the parse path —
// XML parse plus core.Compile — which dominates restart time whenever
// an entry arrives without trustworthy precompiled keys (every WAL
// record, every legacy or damaged snapshot entry, any fingerprint
// mismatch). In a CPU profile of opening a store with a 300-record WAL
// tail (sbmlbench's ingest-churn fixture, 2 vCPUs), the XML parse
// (xmltree's byte scanner) is ~15% of the open and sbml.FromXML plus
// core.Compile ~21%, so neither side alone dominates any more. The
// parse path is embarrassingly parallel: each model compiles
// independently, and only the sequential apply step afterwards needs
// the results in order. parseAll fans the compiles out across
// GOMAXPROCS workers and returns results positionally, so Open applies
// them in exactly the order a sequential recovery would have.

// parseJob is one model needing the parse path: canonical bytes plus
// the id the containing record claims, cross-checked after the parse.
type parseJob struct {
	id   string
	sbml []byte
}

// parseResult is the outcome of one parse-path compile, at the same
// index as its job.
type parseResult struct {
	cm  *core.CompiledModel
	err error
}

// parseOne runs the full parse path for one job.
func parseOne(j parseJob, match core.Options) parseResult {
	doc, err := sbml.ParseString(string(j.sbml))
	if err != nil {
		// ParseString guarantees doc.Model on success, so this covers
		// model-less documents too.
		return parseResult{err: fmt.Errorf("parse stored model: %w", err)}
	}
	if doc.Model.ID != j.id {
		return parseResult{err: fmt.Errorf("stored bytes carry id %q, record says %q", doc.Model.ID, j.id)}
	}
	cm, err := core.Compile(doc.Model, match)
	if err != nil {
		return parseResult{err: err}
	}
	return parseResult{cm: cm}
}

// parseAll compiles every job across a worker pool and returns results
// at matching indexes. Errors are per-job, never short-circuiting: the
// caller applies results in record order, so the error it surfaces is
// the one a sequential recovery would have hit first.
func parseAll(jobs []parseJob, match core.Options) []parseResult {
	results := make([]parseResult, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = parseOne(j, match)
		}
		return results
	}
	// Work-stealing by atomic counter: model sizes vary, so static
	// striping would leave workers idle behind one heavy stripe.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = parseOne(jobs[i], match)
			}
		}()
	}
	wg.Wait()
	return results
}
