package core

import (
	"context"
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/index"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// foldInput decodes fuzz bytes into a composition problem: 2–5 small
// generated models and the options to fold them under. Byte 0 picks the
// semantics level, byte 1 the index kind (its high bit adds the built-in
// synonym table), byte 2 the model count, and each model takes four bytes
// for its species, edges, seed and vocabulary (whose high bit decorates
// the model). Missing bytes read as zero, so every input decodes.
func foldInput(data []byte) ([]*sbml.Model, Options) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	opts := Options{
		Semantics: SemanticsLevel(at(0) % 3),
		Index:     index.Kind(at(1) % 4),
	}
	if at(1)&0x80 != 0 {
		opts.Synonyms = synonym.Builtin()
	}
	models := make([]*sbml.Model, 2+at(2)%4)
	for i := range models {
		b := 3 + 4*i
		nodes := 2 + at(b)%10
		models[i] = biomodels.Generate(biomodels.Config{
			ID:    fmt.Sprintf("fold%d", i),
			Nodes: nodes,
			Edges: 1 + at(b+1)%14,
			Seed:  int64(at(b + 2)),
			// Generate samples species names without replacement, so the
			// vocabulary must hold at least Nodes names.
			VocabularySize: nodes + at(b+3)%40,
			Decorate:       at(b+3)&0x80 != 0,
		})
	}
	return models, opts
}

// FuzzComposeFold differentially tests the paper's composition fold. On
// generated models, under every semantics level and index kind, the
// incremental Composer and ComposeAll must equal the seed's
// recompose-every-step left fold exactly.
func FuzzComposeFold(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 6, 1, 10, 5, 7, 2, 10})
	f.Add([]byte{1, 2, 1, 9, 13, 3, 140, 3, 4, 4, 140, 7, 9, 5, 8})
	f.Add([]byte{2, 3, 3, 2, 1, 6, 0, 9, 13, 7, 0, 1, 2, 8, 0, 5, 5, 9, 0})
	f.Add([]byte{0, 0x81, 2, 8, 12, 11, 0x88, 8, 12, 12, 0x88, 6, 10, 13, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() []*sbml.Model { ms, _ := foldInput(data); return ms }
		models, opts := foldInput(data)
		want := seedFold(t, models, opts)

		c := NewComposer(opts)
		for _, m := range fresh() {
			if err := c.Add(context.Background(), m); err != nil {
				t.Fatalf("Composer.Add: %v", err)
			}
		}
		equalResults(t, "Composer vs seed fold", c.Result(), want)
		got, err := ComposeAll(context.Background(), fresh(), opts)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, "ComposeAll vs seed fold", got, want)
	})
}
