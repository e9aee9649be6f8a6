package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
)

func testServer() *Server {
	return New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 2}), Config{})
}

func modelXML(id string, seed int64) string {
	m := biomodels.Generate(biomodels.Config{
		ID: id, Nodes: 10, Edges: 14, Seed: seed, VocabularySize: 60, Decorate: true,
	})
	return sbmlcompose.ModelToString(m)
}

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var payload map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
		}
	}
	return rec, payload
}

func jsonBody(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestModelLifecycleEndpoints(t *testing.T) {
	s := testServer()

	rec, payload := do(t, s, "POST", "/v1/models", modelXML("srv_a", 100))
	if rec.Code != http.StatusCreated || payload["id"] != "srv_a" {
		t.Fatalf("POST /models: %d %v", rec.Code, payload)
	}
	// Duplicate id → 409.
	rec, _ = do(t, s, "POST", "/v1/models", modelXML("srv_a", 100))
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate POST /models: %d", rec.Code)
	}
	// ?id= override.
	rec, payload = do(t, s, "POST", "/v1/models?id=renamed", modelXML("srv_a", 101))
	if rec.Code != http.StatusCreated || payload["id"] != "renamed" {
		t.Fatalf("POST /models?id=: %d %v", rec.Code, payload)
	}
	// Malformed body → 400.
	rec, _ = do(t, s, "POST", "/v1/models", "<not-sbml")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed POST /models: %d", rec.Code)
	}

	rec, _ = do(t, s, "DELETE", "/v1/models/renamed", "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE /models/renamed: %d", rec.Code)
	}
	rec, _ = do(t, s, "DELETE", "/v1/models/renamed", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d", rec.Code)
	}
}

func TestSearchComposeEndpoints(t *testing.T) {
	s := testServer()
	for i := 0; i < 5; i++ {
		rec, _ := do(t, s, "POST", "/v1/models", modelXML(fmt.Sprintf("corp%d", i), int64(200+i)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed model %d: %d", i, rec.Code)
		}
	}

	query := modelXML("corp3", 203) // clone of a stored model
	rec, payload := do(t, s, "POST", "/v1/search", jsonBody(t, map[string]any{"sbml": query, "top_k": 3}))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /search: %d %v", rec.Code, payload)
	}
	hits, ok := payload["hits"].([]any)
	if !ok || len(hits) == 0 {
		t.Fatalf("search returned no hits: %v", payload)
	}
	top := hits[0].(map[string]any)
	if top["model_id"] != "corp3" {
		t.Fatalf("top hit = %v, want corp3", top["model_id"])
	}
	if _, ok := payload["took_ms"]; !ok {
		t.Fatal("search response missing took_ms")
	}

	rec, payload = do(t, s, "POST", "/v1/compose", jsonBody(t, map[string]any{"id": "corp0", "sbml": query}))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /compose: %d %v", rec.Code, payload)
	}
	merged, err := sbmlcompose.ParseModelString(payload["sbml"].(string))
	if err != nil {
		t.Fatalf("compose returned unparsable SBML: %v", err)
	}
	if err := sbmlcompose.Validate(merged); err != nil {
		t.Fatalf("composed model invalid: %v", err)
	}
	rec, _ = do(t, s, "POST", "/v1/compose", jsonBody(t, map[string]any{"id": "nope", "sbml": query}))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("compose with missing id: %d", rec.Code)
	}
	rec, _ = do(t, s, "POST", "/v1/search", `{"sbml": 42}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed search body: %d", rec.Code)
	}
}

func TestSimulateCheckHealthzEndpoints(t *testing.T) {
	s := testServer()
	m := biomodels.Generate(biomodels.Config{
		ID: "sim_m", Nodes: 8, Edges: 10, Seed: 300, VocabularySize: 50, Decorate: true,
	})
	rec, _ := do(t, s, "POST", "/v1/models", sbmlcompose.ModelToString(m))
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed: %d", rec.Code)
	}

	simReq := map[string]any{"id": "sim_m", "t0": 0, "t1": 1, "step": 0.1}
	rec, payload := do(t, s, "POST", "/v1/simulate", jsonBody(t, simReq))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /simulate: %d %v", rec.Code, payload)
	}
	times := payload["times"].([]any)
	if len(times) != 11 {
		t.Fatalf("ODE trace has %d samples, want 11", len(times))
	}
	simReq["method"] = "ssa"
	simReq["seed"] = 42
	rec, _ = do(t, s, "POST", "/v1/simulate", jsonBody(t, simReq))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /simulate ssa: %d", rec.Code)
	}
	simReq["method"] = "quantum"
	rec, _ = do(t, s, "POST", "/v1/simulate", jsonBody(t, simReq))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad method: %d", rec.Code)
	}
	simReq["method"] = "ode"
	simReq["id"] = "missing"
	rec, _ = do(t, s, "POST", "/v1/simulate", jsonBody(t, simReq))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("simulate missing model: %d", rec.Code)
	}

	checkReq := map[string]any{
		"id": "sim_m", "formula": "G({" + m.Species[0].ID + " >= 0})",
		"t0": 0, "t1": 1, "step": 0.1,
	}
	rec, payload = do(t, s, "POST", "/v1/check", jsonBody(t, checkReq))
	if rec.Code != http.StatusOK || payload["satisfied"] != true {
		t.Fatalf("POST /check: %d %v", rec.Code, payload)
	}

	rec, payload = do(t, s, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK || payload["status"] != "ok" {
		t.Fatalf("GET /healthz: %d %v", rec.Code, payload)
	}
	if payload["models"].(float64) != 1 {
		t.Fatalf("healthz models = %v, want 1", payload["models"])
	}
	endpoints := payload["endpoints"].(map[string]any)
	sim := endpoints["POST /v1/simulate"].(map[string]any)
	if sim["count"].(float64) != 4 {
		t.Fatalf("per-endpoint count for /simulate = %v, want 4", sim["count"])
	}
	if sim["mean_ms"].(float64) <= 0 {
		t.Fatal("per-endpoint mean latency not recorded")
	}
}

// TestMethodRouting pins that unregistered method/path combinations 404/405
// instead of panicking or matching the wrong handler.
func TestMethodRouting(t *testing.T) {
	s := testServer()
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/models"},
		{"PUT", "/v1/search"},
		{"GET", "/nope"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader(nil))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 404/405", tc.method, tc.path, rec.Code)
		}
	}
}
