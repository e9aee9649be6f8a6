// Fixture for the ctxfirst analyzer; the directory basename "core" puts
// this package in scope, as internal/core is in the real tree.
package core

import "context"

// workContext is a context-aware callee for the swallowed-cancellation
// cases below.
func workContext(ctx context.Context, n int) int { return n }

// Bad: ctx exists but hides behind another parameter.
func Misplaced(name string, ctx context.Context) error { // want "takes context.Context at position 1; ctx is always the first parameter"
	_ = workContext(ctx, 1)
	return nil
}

// Good: ctx first.
func Placed(ctx context.Context, name string) error {
	_ = workContext(ctx, 1)
	return nil
}

// ProcessContext is the cancellable twin of Process.
func ProcessContext(ctx context.Context, items []int) int {
	total := 0
	for _, it := range items {
		total += workContext(ctx, it)
	}
	return total
}

// Bad: a ctx-free twin, even one that delegates, is a second entry point
// for the same operation.
func Process(items []int) int { // want "Process has a ctx-taking twin ProcessContext; keep one entry point"
	return ProcessContext(context.Background(), items)
}

// RebuildContext exists, so Rebuild is a twin too.
func RebuildContext(ctx context.Context, items []int) int {
	total := 0
	for _, it := range items {
		total += workContext(ctx, it)
	}
	return total
}

// Bad: a parallel implementation beside the Context twin.
func Rebuild(items []int) int { // want "Rebuild has a ctx-taking twin RebuildContext; keep one entry point"
	total := 0
	for _, it := range items {
		total += it * 2
	}
	return total
}

// StepCtx is the Ctx-suffixed spelling of a ctx-taking twin.
func StepCtx(ctx context.Context, items []int) int {
	return ProcessContext(ctx, items)
}

// Bad: the Ctx suffix makes a twin just as Context does.
func Step(items []int) int { // want "Step has a ctx-taking twin StepCtx; keep one entry point"
	return StepCtx(context.Background(), items)
}

// DrainContext is the ctx-taking half of a pair kept on purpose.
func DrainContext(ctx context.Context, items []int) int {
	return ProcessContext(ctx, items)
}

// Good: an annotated pair documents why both spellings stay.
//
//sbml:noctx a caller outside this change's scope still calls the ctx-free half
func Drain(items []int) int {
	return DrainContext(context.Background(), items)
}

// Bad: loops over a context-aware callee with no way to cancel it.
func Fold(items []int) int { // want "exported Fold loops over context-aware calls but takes no context.Context"
	total := 0
	for _, it := range items {
		total += workContext(context.Background(), it)
	}
	return total
}

// Good: justified opt-out for a frozen reference implementation.
//
//sbml:noctx frozen bitwise reference; equivalence pins depend on this exact body
func FoldReference(items []int) int {
	total := 0
	for _, it := range items {
		total += workContext(context.Background(), it)
	}
	return total
}

// Good: a pure compute loop (no context-aware callees) needs no ctx.
func Checksum(items []int) int {
	total := 0
	for _, it := range items {
		total = total*31 + it
	}
	return total
}

// Good: unexported functions are the package's own business.
func fold(items []int) int {
	total := 0
	for _, it := range items {
		total += workContext(context.Background(), it)
	}
	return total
}

// Methods are covered too.
type Engine struct{}

// RunContext is Run's cancellable twin.
func (e *Engine) RunContext(ctx context.Context, items []int) int {
	return ProcessContext(ctx, items)
}

// Bad: a method twin, even one that delegates.
func (e *Engine) Run(items []int) int { // want "Run has a ctx-taking twin RunContext; keep one entry point"
	return e.RunContext(context.Background(), items)
}
