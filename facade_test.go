package sbmlcompose

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const modelA = `<sbml level="2" version="4"><model id="a">
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
      <kineticLaw>
        <math xmlns="http://www.w3.org/1998/Math/MathML">
          <apply><times/><ci>k1</ci><ci>A</ci></apply>
        </math>
      </kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

const modelB = `<sbml level="2" version="4"><model id="b">
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
      <kineticLaw>
        <math xmlns="http://www.w3.org/1998/Math/MathML">
          <apply><times/><ci>k2</ci><ci>B</ci></apply>
        </math>
      </kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>`

func TestFacadeComposePipeline(t *testing.T) {
	a, err := ParseModelString(modelA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseModelString(modelB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Compose(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Model); err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Species) != 3 || len(res.Model.Reactions) != 2 {
		t.Fatalf("composed = %d species %d reactions", len(res.Model.Species), len(res.Model.Reactions))
	}
	out := ModelToString(res.Model)
	if !strings.Contains(out, `species id="C"`) {
		t.Errorf("serialized model missing C:\n%s", out)
	}
}

func TestFacadeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.xml")
	if err := os.WriteFile(path, []byte(modelA), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ParseModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.xml")
	if err := WriteModelFile(m, out); err != nil {
		t.Fatal(err)
	}
	back, err := ParseModelFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalXML(m) != CanonicalXML(back) {
		t.Error("file round trip changed the model")
	}
	if _, err := ParseModelFile(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing file should error")
	}
}

func TestFacadeDiff(t *testing.T) {
	a, _ := ParseModelString(modelA)
	b, _ := ParseModelString(modelA)
	if diffs := Diff(a, b); len(diffs) != 0 {
		t.Errorf("identical models differ: %v", diffs)
	}
	b.Species[0].InitialConcentration = 7
	diffs := Diff(a, b)
	if len(diffs) == 0 {
		t.Error("changed model compares equal")
	}
	if EditDistance(a, b) == 0 {
		t.Error("edit distance of changed model is 0")
	}
	if EditDistance(a, a) != 0 {
		t.Error("edit distance to self not 0")
	}
}

func TestFacadeSimulateAndRSS(t *testing.T) {
	a, _ := ParseModelString(modelA)
	ctx := context.Background()
	cli := New()
	tr, err := cli.SimulateODE(ctx, a, SimOptions{T0: 0, T1: 4, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// A decays as e^(−0.5t).
	v, err := tr.At("A", 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Exp(-1)) > 1e-5 {
		t.Errorf("A(2) = %g, want %g", v, math.Exp(-1))
	}
	tr2, err := cli.SimulateODE(ctx, a, SimOptions{T0: 0, T1: 4, Step: 0.01, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := TracesEquivalent(tr, tr2, 1e-6)
	if err != nil || !eq {
		t.Errorf("fixed and adaptive traces should be equivalent: %v %v", eq, err)
	}
	per, err := RSS(tr, tr2, []string{"A"})
	if err != nil || per["A"] > 1e-6 {
		t.Errorf("RSS = %v, err %v", per, err)
	}
}

func TestFacadeModelChecking(t *testing.T) {
	a, _ := ParseModelString(modelA)
	ctx := context.Background()
	cli := New()
	ok, err := cli.CheckProperty(ctx, a, "G({A >= 0}) & F({B > 0.5})", SimOptions{T0: 0, T1: 10, Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("decay property should hold")
	}
	ok, err = cli.CheckProperty(ctx, a, "G({A > 0.5})", SimOptions{T0: 0, T1: 10, Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("A stays above 0.5 is false")
	}
	if _, err := cli.CheckProperty(ctx, a, "G({A", SimOptions{T0: 0, T1: 1}); err == nil {
		t.Error("bad formula should error")
	}
	est, err := cli.ProbabilityEstimate(ctx, a, "G({A + B == 1000})", 10, SimOptions{T0: 0, T1: 2, Step: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability != 1 { // conservation at SSA scale 1000
		t.Errorf("conservation probability = %g", est.Probability)
	}
}

func TestFacadeSynonymComposition(t *testing.T) {
	a, _ := ParseModelString(strings.Replace(modelA, `species id="A" compartment="cell"`,
		`species id="A" name="glucose" compartment="cell"`, 1))
	b, _ := ParseModelString(strings.Replace(modelB, `species id="C" compartment="cell"`,
		`species id="C" name="dextrose" compartment="cell"`, 1))
	// Built-in table knows glucose=dextrose, so A and C merge.
	ctx := context.Background()
	res, err := New().Compose(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Species) != 2 {
		t.Errorf("species = %d, want 2 (glucose≡dextrose)", len(res.Model.Species))
	}
	// Light semantics keeps them apart.
	res, err = New(WithSemantics(LightSemantics)).Compose(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Species) != 3 {
		t.Errorf("light semantics species = %d, want 3", len(res.Model.Species))
	}
}
