package sbmlcompose_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"sbmlcompose"
)

const chainAB = `<sbml level="2" version="4"><model id="chain1">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="A" compartment="cell" initialConcentration="1"/>
    <species id="B" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="k1" value="0.5"/></listOfParameters>
  <listOfReactions>
    <reaction id="r1" reversible="false">
      <listOfReactants><speciesReference species="A"/></listOfReactants>
      <listOfProducts><speciesReference species="B"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>k1</ci><ci>A</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

const chainBC = `<sbml level="2" version="4"><model id="chain2">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="B" compartment="cell" initialConcentration="0"/>
    <species id="C" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="k2" value="0.25"/></listOfParameters>
  <listOfReactions>
    <reaction id="r2" reversible="false">
      <listOfReactants><speciesReference species="B"/></listOfReactants>
      <listOfProducts><speciesReference species="C"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>k2</ci><ci>B</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

// ExampleClient_Compose merges two chain fragments that share species B.
func ExampleClient_Compose() {
	a, err := sbmlcompose.ParseModelString(chainAB)
	if err != nil {
		log.Fatal(err)
	}
	b, err := sbmlcompose.ParseModelString(chainBC)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sbmlcompose.New().Compose(context.Background(), a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("species: %d, reactions: %d, warnings: %d\n",
		len(res.Model.Species), len(res.Model.Reactions), len(res.Warnings))
	// Output:
	// species: 3, reactions: 2, warnings: 0
}

// ExampleClient_MatchModels reports which components two models share
// without merging them.
func ExampleClient_MatchModels() {
	a, _ := sbmlcompose.ParseModelString(chainAB)
	b, _ := sbmlcompose.ParseModelString(chainBC)
	matches, err := sbmlcompose.New().MatchModels(context.Background(), a, b)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Println(m.First)
	}
	// Output:
	// cell
	// B
}

// ExampleClient_CheckProperty verifies a temporal-logic property on a
// simulated model.
func ExampleClient_CheckProperty() {
	m, _ := sbmlcompose.ParseModelString(chainAB)
	ok, err := sbmlcompose.New().CheckProperty(context.Background(), m, "G({A >= 0}) & F({B > 0.9})",
		sbmlcompose.SimOptions{T0: 0, T1: 20, Step: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ok)
	// Output:
	// true
}

// ExampleClient shows the primary API: one configured client, every
// long-running call context-first.
func ExampleClient() {
	cli := sbmlcompose.New() // heavy semantics, built-in synonyms
	a, _ := sbmlcompose.ParseModelString(chainAB)
	b, _ := sbmlcompose.ParseModelString(chainBC)

	res, err := cli.Compose(context.Background(), a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("species: %d, reactions: %d\n", len(res.Model.Species), len(res.Model.Reactions))
	// Output:
	// species: 3, reactions: 2
}

// ExampleNew configures a client with functional options: light
// semantics (no synonym table, no unit conversion).
func ExampleNew() {
	cli := sbmlcompose.New(
		sbmlcompose.WithSemantics(sbmlcompose.LightSemantics),
	)
	a, _ := sbmlcompose.ParseModelString(chainAB)
	b, _ := sbmlcompose.ParseModelString(chainBC)
	res, err := cli.ComposeAll(context.Background(), []*sbmlcompose.Model{a, b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d models into %d species\n", 2, len(res.Model.Species))
	// Output:
	// merged 2 models into 3 species
}

// ExampleClient_ProbabilityEstimate bounds a Monte Carlo probability
// estimate with a deadline: the runs stop between (and inside) stochastic
// simulations when the deadline passes, returning
// context.DeadlineExceeded instead of running to completion. With a
// generous deadline the estimate is the deterministic per-seed value.
func ExampleClient_ProbabilityEstimate() {
	cli := sbmlcompose.New()
	m, _ := sbmlcompose.ParseModelString(chainAB)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	est, err := cli.ProbabilityEstimate(ctx, m, "F({B > 200})", 40,
		sbmlcompose.SimOptions{T0: 0, T1: 20, Step: 0.5, Seed: 1})
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Println("out of time")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P = %.2f\n", est.Probability)
	// Output:
	// P = 1.00
}
