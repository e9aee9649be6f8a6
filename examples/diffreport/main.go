// Diff report: the paper's §4.1 evaluation loop as a standalone program.
// A corpus model is composed with a mutated copy of itself; the report then
// runs all three comparison methods on composed vs expected:
//
//  1. SBML-aware semantic diff (order-insensitive lists, §4.1.1),
//  2. tree edit distance (the tree-to-tree correction measure of §2), and
//  3. residual sum of squares over simulated traces (§4.1.3).
//
// Run with:
//
//	go run ./examples/diffreport
package main

import (
	"context"
	"fmt"
	"log"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
)

func main() {
	// The "expected" model and a variant a collaborator edited: one
	// initial concentration changed, one reaction removed.
	expected := biomodels.Generate(biomodels.Config{
		ID: "pathway", Nodes: 12, Edges: 18, Seed: 5, Decorate: true,
	})
	variant := expected.Clone()
	variant.Species[0].InitialConcentration *= 3
	variant.Reactions = variant.Reactions[:len(variant.Reactions)-1]

	// Compose the variant back with the expected model. First-model-wins
	// resolves the concentration conflict in expected's favour.
	ctx := context.Background()
	cli := sbmlcompose.New()
	res, err := cli.Compose(ctx, expected, variant)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composition: %d merged, %d added, %d conflicts\n",
		res.Stats.Merged, res.Stats.Added, res.Stats.Conflicts)
	for _, w := range res.Warnings {
		fmt.Println("  warning:", w)
	}

	// Method 1: semantic SBML diff. Composed vs expected should be
	// identical — the variant contributed nothing new.
	diffs := sbmlcompose.Diff(expected, res.Model)
	fmt.Printf("\nsemantic diff (composed vs expected): %d differences\n", len(diffs))
	for _, d := range diffs {
		fmt.Println("  ", d)
	}

	// Method 2: tree edit distance, the coarse structural measure.
	fmt.Printf("tree edit distance (composed vs expected): %d\n",
		sbmlcompose.EditDistance(expected, res.Model))
	fmt.Printf("tree edit distance (variant vs expected):  %d\n",
		sbmlcompose.EditDistance(expected, variant))

	// Method 3: trace equivalence. Composed and expected must simulate
	// identically (RSS ≈ 0); the variant must not.
	opts := sbmlcompose.SimOptions{T0: 0, T1: 5, Step: 0.05}
	trExpected, err := cli.SimulateODE(ctx, expected, opts)
	if err != nil {
		log.Fatal(err)
	}
	trComposed, err := cli.SimulateODE(ctx, res.Model, opts)
	if err != nil {
		log.Fatal(err)
	}
	trVariant, err := cli.SimulateODE(ctx, variant, opts)
	if err != nil {
		log.Fatal(err)
	}
	eqComposed, err := sbmlcompose.TracesEquivalent(trExpected, trComposed, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	eqVariant, err := sbmlcompose.TracesEquivalent(trExpected, trVariant, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace equivalence: composed≡expected %v, variant≡expected %v\n",
		eqComposed, eqVariant)
	if !eqComposed || eqVariant {
		log.Fatal("evaluation failed: composed model does not reproduce the expected dynamics")
	}
	fmt.Println("composition verified: composed model reproduces the expected model exactly")
}
