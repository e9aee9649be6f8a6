package xmlmerge

import (
	"context"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
	"sbmlcompose/internal/xmltree"
)

func parse(t *testing.T, s string) *xmltree.Node {
	t.Helper()
	n, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMergeKeyedElements(t *testing.T) {
	a := parse(t, `<m><list><e id="x" v="1"/><e id="y" v="2"/></list></m>`)
	b := parse(t, `<m><list><e id="y" v="2"/><e id="z" v="3"/></list></m>`)
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	es := res.Doc.FindAll("list/e")
	if len(es) != 3 {
		t.Fatalf("merged elements = %d, want 3\n%s", len(es), res.Doc)
	}
	if len(res.Conflicts) != 0 {
		t.Errorf("conflicts = %v", res.Conflicts)
	}
}

func TestMergeConflictFirstWins(t *testing.T) {
	a := parse(t, `<m><e id="x" v="1"/></m>`)
	b := parse(t, `<m><e id="x" v="9"/></m>`)
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Doc.Child("e").Attr("v"); got != "1" {
		t.Errorf("v = %q, want first document's 1", got)
	}
	if len(res.Conflicts) != 1 || !strings.Contains(res.Conflicts[0].String(), "attribute v") {
		t.Errorf("conflicts = %v", res.Conflicts)
	}
}

func TestMergeAdoptsNewAttributes(t *testing.T) {
	a := parse(t, `<m><e id="x"/></m>`)
	b := parse(t, `<m><e id="x" extra="yes"/></m>`)
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Doc.Child("e").Attr("extra") != "yes" {
		t.Error("new attribute not adopted")
	}
	if len(res.Conflicts) != 0 {
		t.Errorf("conflicts = %v", res.Conflicts)
	}
}

func TestMergeAnonymousElements(t *testing.T) {
	a := parse(t, `<m><note>keep</note></m>`)
	b := parse(t, `<m><note>keep</note><other/></m>`)
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// note merges as a singleton container (its text matches); other appends.
	if len(res.Doc.ChildElements("note")) != 1 {
		t.Errorf("notes = %d\n%s", len(res.Doc.ChildElements("note")), res.Doc)
	}
	if res.Doc.Child("other") == nil {
		t.Error("new element not appended")
	}
}

func TestMergeTextConflict(t *testing.T) {
	a := parse(t, `<m><msg>hello</msg></m>`)
	b := parse(t, `<m><msg>goodbye</msg></m>`)
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Doc.Child("msg").InnerText(); got != "hello" {
		t.Errorf("text = %q, want first document's", got)
	}
	if len(res.Conflicts) != 1 {
		t.Errorf("conflicts = %v", res.Conflicts)
	}
}

func TestMergeErrors(t *testing.T) {
	a := parse(t, `<m/>`)
	b := parse(t, `<other/>`)
	if _, err := Merge(a, b); err == nil {
		t.Error("root mismatch should error")
	}
	if _, err := Merge(nil, a); err == nil {
		t.Error("nil doc should error")
	}
	if _, err := Merge(xmltree.NewText("x"), a); err == nil {
		t.Error("non-element root should error")
	}
}

func TestMergeInputsNotMutated(t *testing.T) {
	a := parse(t, `<m><e id="x" v="1"/></m>`)
	b := parse(t, `<m><e id="y" v="2"/></m>`)
	before := a.Canonical()
	if _, err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != before {
		t.Error("first input mutated")
	}
}

// --- the future-work §5 comparison: generic vs semantic composition ---

// TestGenericMergesSBMLStructure shows the generic method handles the easy
// case: two SBML documents sharing components by identical ids.
func TestGenericMergesSBMLStructure(t *testing.T) {
	m1 := biomodels.Generate(biomodels.Config{ID: "g", Nodes: 10, Edges: 12, Seed: 4})
	m2 := biomodels.Generate(biomodels.Config{ID: "g", Nodes: 10, Edges: 12, Seed: 4})
	a := sbml.WrapModel(m1).ToXML()
	b := sbml.WrapModel(m2).ToXML()
	res, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sbml.FromXML(res.Doc)
	if err != nil {
		t.Fatalf("generic merge of identical models broke the document: %v", err)
	}
	if len(merged.Model.Species) != len(m1.Species) {
		t.Errorf("species = %d, want %d", len(merged.Model.Species), len(m1.Species))
	}
	if len(res.Conflicts) != 0 {
		t.Errorf("conflicts = %v", res.Conflicts)
	}
}

// TestGenericMissesSynonyms documents the generic method's limitation: it
// cannot match species whose names differ even when they denote the same
// entity, while the semantic composer can (the §5 question answered).
func TestGenericMissesSynonyms(t *testing.T) {
	mk := func(id, spID, spName string) *sbml.Model {
		m := sbml.NewModel(id)
		m.Compartments = append(m.Compartments, &sbml.Compartment{ID: "cell", SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true})
		m.Species = append(m.Species, &sbml.Species{ID: spID, Name: spName, Compartment: "cell",
			InitialConcentration: 1, HasInitialConcentration: true})
		return m
	}
	a := mk("a", "glc", "glucose")
	b := mk("b", "dex", "dextrose")

	// Generic: two species survive.
	res, err := Merge(sbml.WrapModel(a).ToXML(), sbml.WrapModel(b).ToXML())
	if err != nil {
		t.Fatal(err)
	}
	generic, err := sbml.FromXML(res.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(generic.Model.Species) != 2 {
		t.Errorf("generic merge species = %d, want 2 (no synonym knowledge)", len(generic.Model.Species))
	}

	// Semantic (heavy): the synonym table merges them.
	tab := synonym.NewTable()
	tab.Add("glucose", "dextrose")
	sres, err := core.Compose(context.Background(), a, b, core.Options{Synonyms: tab})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Model.Species) != 1 {
		t.Errorf("semantic compose species = %d, want 1", len(sres.Model.Species))
	}
}
