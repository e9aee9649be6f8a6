package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"sbmlcompose"
)

// Tests for the raw-body query cache on /v1/search: a cache hit may only
// ever save work, never change a response. Cached and uncached servers
// over the same corpus must answer byte-identically, and a cached query
// must keep seeing live corpus mutations.

// stripTook canonicalizes a search response for comparison: took_ms is
// wall-clock and legitimately differs per request; everything else may
// not.
func stripTook(t *testing.T, body []byte) string {
	t.Helper()
	var payload map[string]any
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("non-JSON search response %q", body)
	}
	delete(payload, "took_ms")
	out, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestSearchCacheHitsAreByteIdentical(t *testing.T) {
	corpus := sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 2})
	cached := New(corpus, Config{})
	uncached := New(corpus, Config{})
	uncached.searchCache = nil
	for i := 0; i < 6; i++ {
		if _, err := corpus.Add(mustParse(t, modelXML("qc"+string(rune('a'+i)), int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	body := jsonBody(t, searchRequest{SBML: modelXML("qcq", 2), TopK: 4})

	recU, _ := do(t, uncached, http.MethodPost, "/v1/search", body)
	if recU.Code != http.StatusOK {
		t.Fatalf("uncached search: %d %s", recU.Code, recU.Body.String())
	}
	want := stripTook(t, recU.Body.Bytes())

	// First cached request misses and populates; the next two hit. All
	// three must equal the uncached response modulo took_ms.
	for i := 0; i < 3; i++ {
		rec, _ := do(t, cached, http.MethodPost, "/v1/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("cached search %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if got := stripTook(t, rec.Body.Bytes()); got != want {
			t.Fatalf("cached search %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	if hits := cached.searchCacheHits.Load(); hits != 2 {
		t.Fatalf("cache hits = %d, want 2 (first request is a miss)", hits)
	}
	if hits := uncached.searchCacheHits.Load(); hits != 0 {
		t.Fatalf("disabled cache recorded %d hits", hits)
	}
}

// TestSearchCacheKeysOnExactBytes pins the cache key: a semantically
// identical body with different whitespace is a miss (and still answers
// identically), so the cache can never confuse two distinct requests.
func TestSearchCacheKeysOnExactBytes(t *testing.T) {
	s := testServer()
	for i := 0; i < 4; i++ {
		if _, err := s.corpus.Add(mustParse(t, modelXML("qc"+string(rune('a'+i)), int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	body := jsonBody(t, searchRequest{SBML: modelXML("qcq", 1), TopK: 3})
	spaced := " " + body // same JSON value, different bytes

	rec1, _ := do(t, s, http.MethodPost, "/v1/search", body)
	rec2, _ := do(t, s, http.MethodPost, "/v1/search", spaced)
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("search codes: %d, %d", rec1.Code, rec2.Code)
	}
	if s.searchCacheHits.Load() != 0 {
		t.Fatal("whitespace variant hit the cache; key must be the exact bytes")
	}
	if a, b := stripTook(t, rec1.Body.Bytes()), stripTook(t, rec2.Body.Bytes()); a != b {
		t.Fatalf("byte-distinct encodings of one request diverged:\n%s\n%s", a, b)
	}
}

// TestSearchCacheSeesLiveCorpus pins freshness: a cached query ranks
// against the corpus as it is now, not as it was when the entry was
// created.
func TestSearchCacheSeesLiveCorpus(t *testing.T) {
	s := testServer()
	if _, err := s.corpus.Add(mustParse(t, modelXML("qcq", 1))); err != nil {
		t.Fatal(err)
	}
	body := jsonBody(t, searchRequest{SBML: modelXML("qcq", 1), TopK: 10})
	_, first := do(t, s, http.MethodPost, "/v1/search", body)

	// Grow the corpus after the entry is cached; the repeat request must
	// hit the cache and still see the larger ranking.
	for i := 2; i < 5; i++ {
		if _, err := s.corpus.Add(mustParse(t, modelXML("qc"+string(rune('a'+i)), int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	_, second := do(t, s, http.MethodPost, "/v1/search", body)
	if s.searchCacheHits.Load() != 1 {
		t.Fatalf("cache hits = %d, want 1", s.searchCacheHits.Load())
	}
	if first["returned"].(float64) >= second["returned"].(float64) {
		t.Fatalf("cached query did not see the grown corpus: %v -> %v hits",
			first["returned"], second["returned"])
	}
}

// TestSearchCacheSkipsFailures pins that error responses are never
// cached: a bad body re-earns its 4xx on every request, and a later fix
// of the same client goes through the normal path.
func TestSearchCacheSkipsFailures(t *testing.T) {
	s := testServer()
	for i := 0; i < 3; i++ {
		rec, _ := do(t, s, http.MethodPost, "/v1/search", `{"sbml": "<not xml"}`)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("bad body attempt %d: code %d", i, rec.Code)
		}
	}
	if s.searchCache.Len() != 0 {
		t.Fatalf("failed request was cached (%d entries)", s.searchCache.Len())
	}
	if s.searchCacheHits.Load() != 0 {
		t.Fatalf("failed request produced cache hits")
	}
}

func mustParse(t *testing.T, xml string) *sbmlcompose.Model {
	t.Helper()
	m, err := sbmlcompose.ParseModelString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
