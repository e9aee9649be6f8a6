// Incremental pathway assembly: building a model from a library of
// standard parts, the workflow the paper says semanticSBML cannot support
// ("should a group of modelers be creating a large new model … it is not
// possible for the model to be built incrementally").
//
// Three lab groups contribute fragments of a toy glycolysis pathway. They
// use different names for shared metabolites (glucose vs dextrose — handled
// by the synonym table), different parameter names for the same constants,
// and commuted kinetic laws. ComposeAll folds the parts into one valid
// model and the log records every decision.
//
// Run with:
//
//	go run ./examples/pathwayassembly
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sbmlcompose"
)

const partUptake = `<sbml level="2" version="4"><model id="uptake">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="glc_ext" name="external glucose" compartment="cell" initialConcentration="5"/>
    <species id="glc" name="glucose" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="v_uptake" value="0.8"/></listOfParameters>
  <listOfReactions>
    <reaction id="uptake" reversible="false">
      <listOfReactants><speciesReference species="glc_ext"/></listOfReactants>
      <listOfProducts><speciesReference species="glc"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>v_uptake</ci><ci>glc_ext</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

// The second group calls glucose "dextrose" and phosphorylates it.
const partPhosphorylation = `<sbml level="2" version="4"><model id="phospho">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="dex" name="dextrose" compartment="cell" initialConcentration="0"/>
    <species id="g6p" name="glucose-6-phosphate" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="k_hex" value="1.2"/></listOfParameters>
  <listOfReactions>
    <reaction id="hexokinase" reversible="false">
      <listOfReactants><speciesReference species="dex"/></listOfReactants>
      <listOfProducts><speciesReference species="g6p"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>dex</ci><ci>k_hex</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

// The third group continues from G6P and reuses the id k_hex for a
// *different* constant — the composer must rename, not merge.
const partIsomerase = `<sbml level="2" version="4"><model id="isomerase">
  <listOfCompartments><compartment id="cell" size="1"/></listOfCompartments>
  <listOfSpecies>
    <species id="g6p" name="glucose-6-phosphate" compartment="cell" initialConcentration="0"/>
    <species id="f6p" name="fructose-6-phosphate" compartment="cell" initialConcentration="0"/>
  </listOfSpecies>
  <listOfParameters><parameter id="k_hex" value="0.4"/></listOfParameters>
  <listOfReactions>
    <reaction id="isomerase" reversible="false">
      <listOfReactants><speciesReference species="g6p"/></listOfReactants>
      <listOfProducts><speciesReference species="f6p"/></listOfProducts>
      <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
        <apply><times/><ci>k_hex</ci><ci>g6p</ci></apply>
      </math></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

func main() {
	var parts []*sbmlcompose.Model
	for _, src := range []string{partUptake, partPhosphorylation, partIsomerase} {
		m, err := sbmlcompose.ParseModelString(src)
		if err != nil {
			log.Fatal(err)
		}
		parts = append(parts, m)
	}

	ctx := context.Background()
	cli := sbmlcompose.New(
		sbmlcompose.WithSynonyms(sbmlcompose.BuiltinSynonyms()), // knows glucose ≡ dextrose
		sbmlcompose.WithLog(os.Stderr),
	)
	res, err := cli.ComposeAll(ctx, parts)
	if err != nil {
		log.Fatal(err)
	}
	if err := sbmlcompose.Validate(res.Model); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("assembled pathway: %d species, %d reactions, %d parameters\n",
		len(res.Model.Species), len(res.Model.Reactions), len(res.Model.Parameters))
	fmt.Printf("id mappings (synonym matches): %v\n", res.Mappings)
	fmt.Printf("renames (conflicting ids kept apart): %v\n", res.Renames)

	// The assembled pathway must actually flow: external glucose ends up
	// as fructose-6-phosphate.
	holds, err := cli.CheckProperty(ctx, res.Model,
		"F({f6p > 2}) & G({glc_ext >= 0})",
		sbmlcompose.SimOptions{T0: 0, T1: 40, Step: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pathway carries flux (F({f6p > 2})): %v\n", holds)
}
