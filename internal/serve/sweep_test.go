package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// Pins the sbmlvet maporder fix: StatsLines is built by iterating the
// per-endpoint map, so without the trailing sort its order changes run
// to run and shutdown logs can't be diffed.
func TestStatsLinesSorted(t *testing.T) {
	s := testServer()
	if rec, _ := do(t, s, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	for i := 0; i < 3; i++ {
		rec, _ := do(t, s, "POST", "/v1/models", modelXML(fmt.Sprintf("stat%d", i), int64(900+i)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed model %d: %d", i, rec.Code)
		}
	}
	if rec, _ := do(t, s, "POST", "/v1/search", jsonBody(t, map[string]any{"sbml": modelXML("stat0", 900), "top_k": 2})); rec.Code != http.StatusOK {
		t.Fatalf("search: %d", rec.Code)
	}
	lines := s.StatsLines()
	if len(lines) < 3 {
		t.Fatalf("want >= 3 endpoint lines, got %d: %v", len(lines), lines)
	}
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("stats lines not sorted by route:\n%s", strings.Join(lines, "\n"))
	}
}

// Pins the sbmlvet wiredto fix: a warning-free compose must OMIT the
// warnings key entirely (omitempty), not serialize "warnings":[] from
// some code paths and nothing from others — the same byte-identity rule
// the cluster equivalence pins enforce for search responses.
func TestComposeResponseOmitsEmptyWarnings(t *testing.T) {
	b, err := json.Marshal(composeResponse{SBML: "<sbml/>"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "warnings") {
		t.Fatalf("empty Warnings still serialized: %s", b)
	}
	b, err = json.Marshal(composeResponse{SBML: "<sbml/>", Warnings: []string{"dup species s1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"warnings":["dup species s1"]`) {
		t.Fatalf("non-empty Warnings missing: %s", b)
	}
}
