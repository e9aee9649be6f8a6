// Drug interaction study: the motivating scenario from the paper's
// introduction — "in drug development … one has to merge known networks and
// examine topological variants arising from such composition".
//
// Two independently curated pathway models share the target protein P:
//
//	disease pathway:  S + P → SP  (substrate binds the target)
//	drug pathway:     D + P → DP  (the drug sequesters the same target)
//
// Composing them reveals the interaction: the drug competes for P, which
// suppresses SP formation. We compose, simulate before and after, and
// verify the competition with a temporal-logic property.
//
// Run with:
//
//	go run ./examples/druginteraction
package main

import (
	"context"
	"fmt"
	"log"

	"sbmlcompose"
)

const diseasePathway = `<sbml level="2" version="4"><model id="disease">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="S" name="substrate" compartment="cell" initialConcentration="2"/>
    <species id="P" name="target_protein" compartment="cell" initialConcentration="1"/>
    <species id="SP" name="substrate_complex" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="kon_s" value="1.0"/></listOfParameters>
  <listOfReactions>
    <reaction id="bind_substrate" reversible="false">
      <listOfReactants>
        <speciesReference species="S"/>
        <speciesReference species="P"/>
      </listOfReactants>
      <listOfProducts><speciesReference species="SP"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>kon_s</ci><ci>S</ci><ci>P</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

const drugPathway = `<sbml level="2" version="4"><model id="drug">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="D" name="drug" compartment="cell" initialConcentration="3"/>
    <species id="P" name="target_protein" compartment="cell" initialConcentration="1"/>
    <species id="DP" name="drug_complex" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="kon_d" value="5.0"/></listOfParameters>
  <listOfReactions>
    <reaction id="bind_drug" reversible="false">
      <listOfReactants>
        <speciesReference species="D"/>
        <speciesReference species="P"/>
      </listOfReactants>
      <listOfProducts><speciesReference species="DP"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>kon_d</ci><ci>D</ci><ci>P</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

func main() {
	disease, err := sbmlcompose.ParseModelString(diseasePathway)
	if err != nil {
		log.Fatal(err)
	}
	drug, err := sbmlcompose.ParseModelString(drugPathway)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Compose: the shared target protein P merges automatically.
	ctx := context.Background()
	cli := sbmlcompose.New()
	res, err := cli.Compose(ctx, disease, drug)
	if err != nil {
		log.Fatal(err)
	}
	targets := 0
	for _, s := range res.Model.Species {
		if s.Name == "target_protein" {
			targets++
		}
	}
	fmt.Printf("composed model: %d species, %d reactions (target_protein appears %d time)\n",
		len(res.Model.Species), len(res.Model.Reactions), targets)

	// 2. Simulate the disease pathway alone, then with the drug present.
	opts := sbmlcompose.SimOptions{T0: 0, T1: 10, Step: 0.05}
	before, err := cli.SimulateODE(ctx, disease, opts)
	if err != nil {
		log.Fatal(err)
	}
	after, err := cli.SimulateODE(ctx, res.Model, opts)
	if err != nil {
		log.Fatal(err)
	}
	spBefore, _ := before.At("SP", 10)
	spAfter, _ := after.At("SP", 10)
	fmt.Printf("substrate complex at t=10: %.3f without drug, %.3f with drug (%.0f%% suppression)\n",
		spBefore, spAfter, 100*(1-spAfter/spBefore))

	// 3. The interaction is a topological property: with the fast-binding
	// drug present, most of the target ends up drug-bound.
	holds, err := cli.CheckProperty(ctx, res.Model,
		"F({DP > 0.8}) & G({SP < 0.5})", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("competition property F({DP > 0.8}) & G({SP < 0.5}): %v\n", holds)

	// 4. Sanity: RSS between the two simulations of the *shared* species P
	// is large — the drug changed the dynamics, which is the point.
	per, err := sbmlcompose.RSS(before, after, []string{"P", "SP"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamics shift (RSS): P %.3f, SP %.3f\n", per["P"], per["SP"])
}
