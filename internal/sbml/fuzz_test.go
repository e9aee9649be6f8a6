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
	for i, nodes := range []int{3, 12, 30} {
		for _, decorate := range []bool{false, true} {
			m := biomodels.Generate(biomodels.Config{ID: "gen", Nodes: nodes, Edges: nodes + nodes/2, Seed: int64(i + 1), Decorate: decorate})
			f.Add(sbml.WrapModel(m).String())
		}
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
