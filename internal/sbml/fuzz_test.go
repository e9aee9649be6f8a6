package sbml_test

import (
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
)

// FuzzRoundTrip checks the canonical-bytes invariant the WAL, snapshots
// and replication rely on: for any accepted document, writing it, parsing
// the output and writing again gives the same bytes.
func FuzzRoundTrip(f *testing.F) {
	f.Add(sbml.FullDoc)
	for _, doc := range generatedModelDocs() {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data string) {
		doc, err := sbml.ParseString(data)
		if err != nil {
			return
		}
		first := doc.String()
		again, err := sbml.ParseString(first)
		if err != nil {
			t.Fatalf("written document does not parse: %v\ninput %q\nwritten %q", err, data, first)
		}
		if second := again.String(); second != first {
			t.Fatalf("String is not a fixed point\ninput %q\nfirst  %q\nsecond %q", data, first, second)
		}
	})
}

// modelIDDocs are the documents where reading only up to the model's start
// tag most easily parts ways with a full parse, each with the id ModelID
// must give. Where ParseString accepts the document that is its
// Model.ID; where it rejects it, the id the prefix names, or "" when the
// prefix names none.
var modelIDDocs = []struct{ doc, want string }{
	// Prefixed elements, and a default namespace.
	{`<s:sbml xmlns:s="http://www.sbml.org/sbml/level2/version4" level="2" version="4"><s:model id="pfx"/></s:sbml>`, "pfx"},
	{`<sbml xmlns="http://www.sbml.org/sbml/level2/version4"><model id="dflt"></model></sbml>`, "dflt"},
	// A prefix bound to the URL "xmlns" renames the element or attribute
	// it qualifies, on the root, on an earlier sibling, and on the model
	// tag through that tag's own declarations.
	{`<sbml xmlns:x="xmlns"><x:model id="hidden"/><model id="real"/></sbml>`, "real"},
	{`<sbml><m:model xmlns:m="xmlns" id="own"/><model id="real"/></sbml>`, "real"},
	{`<sbml><model xmlns:p="xmlns" p:id="shadow" id="real"/></sbml>`, "real"},
	{`<sbml xmlns:p="xmlns"><model xmlns:p="u" p:id="unshadowed"/></sbml>`, "unshadowed"},
	{`<sbml xmlns="xmlns"><model id="x"/></sbml>`, ""},
	{`<p:sbml xmlns:p="xmlns"><model id="x"/></p:sbml>`, ""},
	// Ids written with entity and character references.
	{`<sbml><model id="a&#95;b&amp;c&#x41;&lt;&quot;"/></sbml>`, `a_b&cA<"`},
	{"<sbml><model id='line&#10;end\r\nx'/></sbml>", "line\nend\nx"},
	// Only the first <model> that is a child of the root counts.
	{`<sbml><notes><model id="inner"/></notes><annotation><p><model id="ann"/></p></annotation><model id="outer"/><model id="second"/></sbml>`, "outer"},
	{`<?xml version="1.0"?><!-- c --><sbml>text<!-- m --><?pi x?><model id="c"/></sbml>`, "c"},
	// Not an SBML document as far as the prefix shows.
	{`<foo><model id="x"/></foo>`, ""},
	{`<model id="x"/>`, ""},
	{`<sbml/>`, ""},
	{`<sbml><a></b><model id="x"/></sbml>`, ""},
	{`<sbml><model id="tr`, ""},
	{`<sbml><model id="x"/></sbml><sbml/>`, "x"},
	// Past the prefix nothing is checked: the root's level, a truncated
	// body and a model without an id.
	{`<sbml level="two"><model id="lv"/></sbml>`, "lv"},
	{`<sbml><model id="trunc">`, "trunc"},
	{`<sbml><model id="trunc"><listOfSpecies><species`, "trunc"},
	{`<sbml><model name="anonymous"/></sbml>`, ""},
}

// TestModelID pins ModelID on modelIDDocs and on generated models.
func TestModelID(t *testing.T) {
	for _, tc := range modelIDDocs {
		if got := sbml.ModelID(tc.doc); got != tc.want {
			t.Errorf("ModelID(%q) = %q, want %q", tc.doc, got, tc.want)
		}
		if doc, err := sbml.ParseString(tc.doc); err == nil && doc.Model.ID != tc.want {
			t.Errorf("table row %q wants %q, ParseString gives %q", tc.doc, tc.want, doc.Model.ID)
		}
	}
	for _, doc := range generatedModelDocs() {
		want, err := sbml.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := sbml.ModelID(doc); got != want.Model.ID {
			t.Errorf("ModelID = %q, ParseString gives %q", got, want.Model.ID)
		}
	}
}

// FuzzModelID checks ModelID against the full parse: whenever ParseString
// accepts a document, ModelID must give its Model.ID.
func FuzzModelID(f *testing.F) {
	f.Add(sbml.FullDoc)
	for _, doc := range generatedModelDocs() {
		f.Add(doc)
	}
	for _, tc := range modelIDDocs {
		f.Add(tc.doc)
	}
	f.Fuzz(func(t *testing.T, data string) {
		got := sbml.ModelID(data)
		doc, err := sbml.ParseString(data)
		if err == nil && got != doc.Model.ID {
			t.Fatalf("ModelID(%q) = %q, ParseString gives %q", data, got, doc.Model.ID)
		}
	})
}

// generatedModelDocs are biomodels.Generate documents of a few sizes.
func generatedModelDocs() []string {
	var docs []string
	for i, nodes := range []int{3, 12, 30} {
		for _, decorate := range []bool{false, true} {
			m := biomodels.Generate(biomodels.Config{ID: "gen", Nodes: nodes, Edges: nodes + nodes/2, Seed: int64(i + 1), Decorate: decorate})
			docs = append(docs, sbml.WrapModel(m).String())
		}
	}
	return docs
}
