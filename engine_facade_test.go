package sbmlcompose

// Facade coverage for the compiled-model engine: Client.Compile and the
// streaming Composer, with the client's default-synonym resolution.

import (
	"context"
	"testing"

	"sbmlcompose/internal/biomodels"
)

func facadeBatch(n int) []*Model {
	models := make([]*Model, n)
	for i := range models {
		models[i] = biomodels.Generate(biomodels.Config{
			ID:             "fpart" + string(rune('a'+i)),
			Nodes:          10 + i,
			Edges:          14 + i,
			Seed:           int64(4200 + 7*i),
			VocabularySize: 50,
			Decorate:       true,
		})
	}
	return models
}

func TestFacadeComposerMatchesComposeAll(t *testing.T) {
	models := facadeBatch(5)
	ctx := context.Background()
	cli := New()
	batch, err := cli.ComposeAll(ctx, models)
	if err != nil {
		t.Fatal(err)
	}
	c := cli.NewComposer()
	for _, m := range models {
		if err := c.Add(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := CanonicalXML(c.Result().Model), CanonicalXML(batch.Model); got != want {
		t.Error("streaming Composer and ComposeAll disagree")
	}
	if err := Validate(c.Result().Model); err != nil {
		t.Errorf("streamed model invalid: %v", err)
	}
}

func TestFacadeCompileSeedsComposer(t *testing.T) {
	models := facadeBatch(3)
	ctx := context.Background()
	cli := New()
	cm, err := cli.Compile(models[0])
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposerFrom(cm)
	for _, m := range models[1:] {
		if err := c.Add(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	// The default synonym table must have been resolved: composing the same
	// batch through the client's fold gives the same model.
	want, err := cli.ComposeAll(ctx, models)
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalXML(c.Model()) != CanonicalXML(want.Model) {
		t.Error("Compile+Composer diverged from ComposeAll")
	}
}
