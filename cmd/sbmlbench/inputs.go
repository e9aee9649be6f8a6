package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/serve"
)

// inputs is everything a workload's child process needs, generated from
// the seed by the parent so the child only serves, drives and checks.
type inputs struct {
	Workload workload `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	// SpansPath, when set, receives the traced run's spans as JSON lines.
	SpansPath string `json:"spans_path,omitempty"`
	// StoreDir is the durable fixture: a snapshot plus a WAL tail.
	StoreDir string `json:"store_dir,omitempty"`
	// Models are loaded through the gateway at cluster set-up.
	Models []string `json:"models,omitempty"`
	// Hot are the hot search bodies with their single-node answers.
	Hot []hotQuery `json:"hot,omitempty"`
	// AddPool and ColdPool feed ingest-churn: SBML bodies added under
	// fresh ids, and search bodies made never-seen by replacing
	// coldPlaceholder.
	AddPool    []string `json:"add_pool,omitempty"`
	ColdPool   []string `json:"cold_pool,omitempty"`
	FixtureIDs []string `json:"fixture_ids,omitempty"`
	// Compose, Sims and Checks feed mixed-open, with the answers computed
	// here.
	Compose []string    `json:"compose,omitempty"`
	Sims    []simCase   `json:"sims,omitempty"`
	Checks  []checkCase `json:"checks,omitempty"`
}

// hotQuery is one hot search body, the stored model it was drawn from,
// and the reference response with took_ms removed.
type hotQuery struct {
	Body    string `json:"body"`
	Planted string `json:"planted"`
	Ref     string `json:"ref"`
}

type simCase struct {
	Body   string `json:"body"`
	Points int    `json:"points"`
}

type checkCase struct {
	Body      string `json:"body"`
	Satisfied bool   `json:"satisfied"`
}

// coldPlaceholder is the model id of every ColdPool body; each cold
// search swaps it for a fresh one.
const coldPlaceholder = "COLDQUERYID"

// corpusOptions are sbmlserved's defaults: 4 shards, GOMAXPROCS workers.
func corpusOptions() sbmlcompose.CorpusOptions {
	return sbmlcompose.CorpusOptions{Shards: 4}
}

// genModel draws the i-th model of a corpus-like set. Its size comes
// from a fixed schedule (6–24 species, 1–2 arcs per species) and only its
// content from r, so every seed puts the same sizes at the same indices:
// the hot bodies, whose Zipf ranks concentrate the load, cost the same
// on every seed. Reaction ids embed the model id, so a stored model's own
// SBML ranks that model strictly first.
func genModel(id string, i int, r *rand.Rand) *sbml.Model {
	nodes := 6 + i*7%19
	return biomodels.Generate(biomodels.Config{
		ID:             id,
		Nodes:          nodes,
		Edges:          nodes + i*11%(nodes+1),
		Seed:           r.Int63(),
		VocabularySize: 300,
		Decorate:       true,
	})
}

// spread returns k distinct indices spaced evenly over [0, n).
func spread(n, k int) []int {
	out := make([]int, k)
	for j := range out {
		out[j] = j * n / k
	}
	return out
}

func modelXML(m *sbml.Model) string { return sbml.WrapModel(m).String() }

func jsonBody(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// prepare generates the workload's inputs from the seed, builds its
// fixture under dir and computes every reference answer.
func prepare(w workload, seed int64, dir string) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	models := make([]*sbml.Model, w.Models)
	for i := range models {
		models[i] = genModel(fmt.Sprintf("bm%04d", i), i, r)
	}
	in := &inputs{Workload: w, Seed: seed}

	// The reference node: the durable fixture for store-backed workloads,
	// an in-memory corpus holding the same models for the cluster.
	var (
		c       *sbmlcompose.Corpus
		release = func() error { return nil }
	)
	if w.durable() {
		in.StoreDir = dir + "/store"
		st, err := buildFixture(in.StoreDir, models, w.WALTail, r)
		if err != nil {
			return nil, err
		}
		c, release = st.Corpus(), st.Close
	} else {
		copts := corpusOptions()
		c = sbmlcompose.NewCorpus(&copts)
		for _, m := range models {
			if _, err := c.Add(m); err != nil {
				return nil, err
			}
			in.Models = append(in.Models, modelXML(m))
		}
	}
	err := fillQueries(in, w, c, models, r)
	if cerr := release(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// buildFixture writes the durable fixture: a snapshot, then a WAL tail of
// exactly tail records — adds of the last models, padded with add/remove
// pairs of throwaway copies when the corpus is too small to fill it. The
// store is returned open, with NoSnapshotOnClose so closing keeps the tail.
// Every append is synced, so no writeback of the fixture lands in the
// measured window.
func buildFixture(dir string, models []*sbml.Model, tail int, r *rand.Rand) (*sbmlcompose.CorpusStore, error) {
	st, err := sbmlcompose.OpenCorpus(dir, &sbmlcompose.StoreOptions{
		Corpus:            corpusOptions(),
		CompactBytes:      -1,
		NoSnapshotOnClose: true,
	})
	if err != nil {
		return nil, err
	}
	c := st.Corpus()
	add := func(ms []*sbml.Model) error {
		for _, m := range ms {
			if _, err := c.Add(m); err != nil {
				return err
			}
		}
		return nil
	}
	tailAdds := min(tail, len(models)/2)
	split := len(models) - tailAdds
	err = add(models[:split])
	if err == nil {
		err = st.Snapshot()
	}
	if err == nil {
		err = add(models[split:])
	}
	for i := 0; err == nil && i < (tail-tailAdds)/2; i++ {
		m := models[r.Intn(len(models))].Clone()
		m.ID = fmt.Sprintf("churn%04d", i)
		if err = add([]*sbml.Model{m}); err == nil {
			_, err = c.Remove(m.ID)
		}
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// fillQueries draws the workload's request bodies and computes their
// answers on the reference corpus c.
func fillQueries(in *inputs, w workload, c *sbmlcompose.Corpus, models []*sbml.Model, r *rand.Rand) error {
	if w.HotBodies > 0 {
		node := serve.New(c, serve.Config{})
		for _, i := range spread(len(models), w.HotBodies) {
			body, err := jsonBody(map[string]any{"sbml": modelXML(models[i]), "top_k": w.TopK})
			if err != nil {
				return err
			}
			ref, err := referenceSearch(node, body, models[i].ID)
			if err != nil {
				return err
			}
			in.Hot = append(in.Hot, hotQuery{Body: body, Planted: models[i].ID, Ref: ref})
		}
	}
	if w.Name == "ingest-churn" {
		in.FixtureIDs = c.IDs()
		for i := 0; i < 64; i++ {
			in.AddPool = append(in.AddPool, modelXML(genModel(fmt.Sprintf("pool%02d", i), i, r)))
			body, err := jsonBody(map[string]any{"sbml": modelXML(genModel(coldPlaceholder, i, r)), "top_k": w.TopK})
			if err != nil {
				return err
			}
			in.ColdPool = append(in.ColdPool, body)
		}
	}
	if w.ComposeNodes > 0 {
		if err := fillMixed(in, w, c, models, r); err != nil {
			return err
		}
	}
	return nil
}

// referenceSearch answers body on a single in-process node and checks
// that the planted model ranks first.
func referenceSearch(node http.Handler, body, planted string) (string, error) {
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("reference search: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Hits []struct {
			ModelID string `json:"model_id"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return "", fmt.Errorf("reference search: %w", err)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].ModelID != planted {
		return "", fmt.Errorf("reference search: planted model %s does not rank first", planted)
	}
	return string(stripTook(rec.Body.Bytes())), nil
}

// fillMixed draws mixed-open's compose, simulate and check bodies. The
// simulate trace lengths and check verdicts are computed here, on the
// reference corpus, for the child to compare against under load.
func fillMixed(in *inputs, w workload, c *sbmlcompose.Corpus, models []*sbml.Model, r *rand.Rand) error {
	query := modelXML(biomodels.Generate(biomodels.Config{
		ID: "composequery", Nodes: w.ComposeNodes, Edges: w.ComposeNodes * 3 / 2,
		Seed: r.Int63(), VocabularySize: 300, Decorate: true,
	}))
	opts := sbmlcompose.SimOptions{T1: w.SimT1}
	for _, i := range spread(len(models), 16) {
		m := models[i+1]
		body, err := jsonBody(map[string]any{"id": m.ID, "sbml": query})
		if err != nil {
			return err
		}
		if len(in.Compose) < 8 {
			in.Compose = append(in.Compose, body)
		}
		tr, err := c.SimulateODE(m.ID, opts)
		if err != nil {
			return fmt.Errorf("reference simulate %s: %w", m.ID, err)
		}
		if body, err = jsonBody(map[string]any{"id": m.ID, "method": "ode", "t1": w.SimT1}); err != nil {
			return err
		}
		in.Sims = append(in.Sims, simCase{Body: body, Points: len(tr.Times)})
		// A threshold near the initial value makes verdicts differ across
		// models, so a wrong answer cannot pass by being always true.
		sp := m.Species[r.Intn(len(m.Species))]
		formula := fmt.Sprintf("F({%s > %g})", sp.ID, sp.InitialConcentration*1.02)
		sat, err := c.CheckProperty(m.ID, formula, opts)
		if err != nil {
			return fmt.Errorf("reference check %s: %w", m.ID, err)
		}
		if body, err = jsonBody(map[string]any{"id": m.ID, "formula": formula, "t1": w.SimT1}); err != nil {
			return err
		}
		in.Checks = append(in.Checks, checkCase{Body: body, Satisfied: sat})
	}
	return nil
}

// stripTook removes the "took_ms" member from a search response, the one
// field that legitimately differs between two equal answers.
func stripTook(b []byte) []byte {
	const key = `,"took_ms":`
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return b
	}
	j := i + len(key)
	for j < len(b) && b[j] != ',' && b[j] != '}' {
		j++
	}
	return append(append([]byte(nil), b[:i]...), b[j:]...)
}
