// Quickstart: compose two overlapping SBML models and print the merged
// document plus any conflict warnings.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sbmlcompose"
)

// Model 1: A → B (the paper's Figure 2 left-hand model, shortened).
const model1 = `<sbml level="2" version="4"><model id="chain1">
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

// Model 2: B → C, sharing species B with model 1. Note the kinetic law is
// written with the operands commuted — pattern matching still merges
// everything shared.
const model2 = `<sbml level="2" version="4"><model id="chain2">
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
        <apply><times/><ci>B</ci><ci>k2</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

func main() {
	a, err := sbmlcompose.ParseModelString(model1)
	if err != nil {
		log.Fatal(err)
	}
	b, err := sbmlcompose.ParseModelString(model2)
	if err != nil {
		log.Fatal(err)
	}

	cli := sbmlcompose.New() // heavy semantics, built-in synonyms
	res, err := cli.Compose(context.Background(), a, b)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("composed: %d species, %d reactions, %d parameters\n",
		len(res.Model.Species), len(res.Model.Reactions), len(res.Model.Parameters))
	fmt.Printf("merged %d components, added %d, %d conflicts, took %s\n",
		res.Stats.Merged, res.Stats.Added, res.Stats.Conflicts, res.Stats.Duration)
	for _, w := range res.Warnings {
		fmt.Println("warning:", w)
	}
	if err := sbmlcompose.Validate(res.Model); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- merged SBML ---")
	if err := sbmlcompose.WriteModel(res.Model, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
