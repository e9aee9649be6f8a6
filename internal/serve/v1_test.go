package serve

// Tests for the /v1 surface added by the context-aware API redesign:
// the removed unversioned routes, pagination inside the ranking merge, the
// per-request deadline (408) and client-disconnect (499) error mapping,
// and the /healthz in-flight gauge. The cancellation tests double as the
// proof that a dropped connection frees the worker pool: in-flight must
// return to zero promptly after the client gives up.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLegacyRoutesAreGone pins that the unversioned API routes answer
// 404 with no redirect, while GET /healthz, which liveness probes poll,
// still answers.
func TestLegacyRoutesAreGone(t *testing.T) {
	s := testServer()
	for _, tc := range []struct{ method, path string }{
		{"POST", "/models?id=x"},
		{"DELETE", "/models/some_id"},
		{"POST", "/search"},
		{"POST", "/compose"},
		{"POST", "/simulate"},
		{"POST", "/check"},
		{"POST", "/snapshot"},
		{"GET", "/metrics"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(""))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", tc.method, tc.path, rec.Code)
		}
		if loc := rec.Header().Get("Location"); loc != "" {
			t.Errorf("%s %s: Location %q, want none", tc.method, tc.path, loc)
		}
	}

	rec, payload := do(t, s, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || payload["status"] != "ok" {
		t.Fatalf("GET /healthz: %d %v", rec.Code, payload)
	}
}

// TestSearchPagination pins that offset/limit pages tile the unpaginated
// ranking exactly: rankings are cut inside the corpus merge, not sliced
// post-hoc, so page boundaries can't reorder ties.
func TestSearchPagination(t *testing.T) {
	s := testServer()
	for i := 0; i < 8; i++ {
		rec, _ := do(t, s, "POST", "/v1/models", modelXML(fmt.Sprintf("page%d", i), int64(400+i)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed model %d: %d", i, rec.Code)
		}
	}
	query := modelXML("page0", 400)

	search := func(body map[string]any) []any {
		rec, payload := do(t, s, "POST", "/v1/search", jsonBody(t, body))
		if rec.Code != http.StatusOK {
			t.Fatalf("search %v: %d %v", body, rec.Code, payload)
		}
		return payload["hits"].([]any)
	}
	full := search(map[string]any{"sbml": query, "top_k": -1})
	if len(full) < 3 {
		t.Fatalf("expected several hits, got %d", len(full))
	}

	var paged []any
	for off := 0; off < len(full); off += 2 {
		page := search(map[string]any{"sbml": query, "offset": off, "limit": 2})
		if len(page) > 2 {
			t.Fatalf("page at offset %d has %d hits, want <= 2", off, len(page))
		}
		paged = append(paged, page...)
	}
	got, _ := json.Marshal(paged)
	want, _ := json.Marshal(full)
	if string(got) != string(want) {
		t.Fatalf("paged hits diverge from full ranking:\n got %s\nwant %s", got, want)
	}

	// Offset past the ranking returns an empty page, not an error.
	empty := search(map[string]any{"sbml": query, "offset": len(full) + 5, "limit": 2})
	if len(empty) != 0 {
		t.Fatalf("offset past end returned %d hits", len(empty))
	}

	// The response echoes the effective window.
	rec, payload := do(t, s, "POST", "/v1/search", jsonBody(t, map[string]any{
		"sbml": query, "offset": 1, "limit": 2,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("windowed search: %d", rec.Code)
	}
	if payload["offset"].(float64) != 1 || payload["limit"].(float64) != 2 {
		t.Fatalf("window echo = offset %v limit %v, want 1/2", payload["offset"], payload["limit"])
	}
	if int(payload["returned"].(float64)) != len(payload["hits"].([]any)) {
		t.Fatalf("returned %v != len(hits) %d", payload["returned"], len(payload["hits"].([]any)))
	}
}

// slowSimBody is a simulation request that runs long enough for a
// deadline or disconnect to land mid-integration (the ODE loop checks the
// context between output steps).
func slowSimBody(t *testing.T, id string) string {
	return jsonBody(t, map[string]any{"id": id, "t0": 0, "t1": 1e6, "step": 1.0})
}

func TestSimulateDeadlineReturns408(t *testing.T) {
	s := testServer()
	rec, _ := do(t, s, "POST", "/v1/models", modelXML("slow_m", 500))
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed: %d", rec.Code)
	}
	s.timeout = 30 * time.Millisecond

	start := time.Now()
	rec, payload := do(t, s, "POST", "/v1/simulate", slowSimBody(t, "slow_m"))
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("deadline-bound simulate: %d %v, want 408", rec.Code, payload)
	}
	if payload["code"] != "deadline_exceeded" {
		t.Fatalf("error code = %v, want deadline_exceeded", payload["code"])
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %s to land", elapsed)
	}
}

func TestClientDisconnectReturns499(t *testing.T) {
	s := testServer()
	rec, _ := do(t, s, "POST", "/v1/models", modelXML("drop_m", 501))
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed: %d", rec.Code)
	}

	// A request whose context is already cancelled models the client that
	// went away: the handler must map context.Canceled to 499, not 422.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(slowSimBody(t, "drop_m"))).WithContext(ctx)
	recorder := httptest.NewRecorder()
	s.ServeHTTP(recorder, req)
	if recorder.Code != statusClientClosedRequest {
		t.Fatalf("cancelled simulate: %d, want 499", recorder.Code)
	}
	var payload map[string]any
	if err := json.Unmarshal(recorder.Body.Bytes(), &payload); err != nil {
		t.Fatalf("non-JSON 499 body: %q", recorder.Body.String())
	}
	if payload["code"] != "client_closed_request" {
		t.Fatalf("error code = %v, want client_closed_request", payload["code"])
	}
}

// TestDroppedConnectionFreesWorker drives the real server loop: a client
// with a short timeout drops a slow /v1/simulate; the handler must notice
// the disconnect and unwind promptly, bringing the in-flight gauge back
// to zero instead of leaving a worker grinding a dead request.
func TestDroppedConnectionFreesWorker(t *testing.T) {
	s := testServer()
	srv := httptest.NewServer(s)
	defer srv.Close()

	xml := modelXML("gone_m", 502)
	resp, err := http.Post(srv.URL+"/v1/models", "application/xml", strings.NewReader(xml))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed: %v %v", err, resp)
	}
	resp.Body.Close()

	client := &http.Client{Timeout: 50 * time.Millisecond}
	_, err = client.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(slowSimBody(t, "gone_m")))
	if err == nil {
		t.Fatal("slow simulate finished inside the client timeout; test needs a slower request")
	}

	// The handler sees the disconnect at its next context check and
	// returns; in-flight must drain well before the simulation could have
	// finished honestly.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.inFlight.Load() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("in-flight stuck at %d after client disconnect", s.inFlight.Load())
}

func TestHealthzReportsInFlight(t *testing.T) {
	s := testServer()
	rec, payload := do(t, s, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	// The healthz request itself is the one in flight.
	if payload["in_flight"].(float64) != 1 {
		t.Fatalf("in_flight = %v, want 1 (the healthz request itself)", payload["in_flight"])
	}
	if s.inFlight.Load() != 0 {
		t.Fatalf("gauge left at %d after request finished", s.inFlight.Load())
	}
	// /v1/healthz and /healthz serve the same payload shape.
	rec2, payload2 := do(t, s, "GET", "/healthz", "")
	if rec2.Code != http.StatusOK || payload2["status"] != "ok" {
		t.Fatalf("legacy healthz: %d %v", rec2.Code, payload2)
	}
	if _, ok := payload2["in_flight"]; !ok {
		t.Fatal("legacy healthz missing in_flight")
	}
}

// TestV1SearchResponseTyped pins the wire shape of the typed DTOs: the
// exact top-level keys of a search response, so accidental field renames
// fail loudly rather than silently breaking clients.
func TestV1SearchResponseTyped(t *testing.T) {
	s := testServer()
	rec, _ := do(t, s, "POST", "/v1/models", modelXML("typed_m", 503))
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed: %d", rec.Code)
	}
	rec, payload := do(t, s, "POST", "/v1/search", jsonBody(t, map[string]any{
		"sbml": modelXML("typed_m", 503), "top_k": 1,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d", rec.Code)
	}
	for _, key := range []string{"hits", "offset", "limit", "returned", "took_ms"} {
		if _, ok := payload[key]; !ok {
			t.Errorf("search response missing %q: %v", key, payload)
		}
	}
	if len(payload) != 5 {
		t.Errorf("search response has %d keys, want exactly 5: %v", len(payload), payload)
	}
}
