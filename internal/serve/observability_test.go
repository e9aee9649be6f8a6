package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/obs"
)

// metricValue extracts the value of the first exposition line whose name
// (and label set, when given) matches prefix, e.g.
// `sbmlserved_http_requests_total{route="search"}`.
func metricValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
		if err != nil {
			t.Fatalf("unparsable metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no %q line in exposition:\n%s", prefix, text)
	return 0
}

// The /v1/metrics scrape covers the HTTP routes, the pipeline stages,
// and the store's WAL durability series, in Prometheus text format with
// counts that match the traffic actually served.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := sbmlcompose.OpenCorpus(t.TempDir(), &sbmlcompose.StoreOptions{
		Corpus:  sbmlcompose.CorpusOptions{Shards: 2},
		Metrics: NewStoreMetrics(reg), // default fsync=always exercises the fsync series
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewPersistent(st, Config{Registry: reg})

	if rec, _ := do(t, s, "POST", "/v1/models", modelXML("obs_a", 300)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/models: %d", rec.Code)
	}
	searchBody := jsonBody(t, map[string]any{"sbml": modelXML("obs_a", 300), "top_k": 3})
	for i := 0; i < 3; i++ {
		if rec, _ := do(t, s, "POST", "/v1/search", searchBody); rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/search #%d: %d", i, rec.Code)
		}
	}

	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	text := rec.Body.String()

	// Route counters match the traffic exactly.
	if got := metricValue(t, text, `sbmlserved_http_requests_total{route="search"}`); got != 3 {
		t.Fatalf("search route counter = %v, want 3", got)
	}
	if got := metricValue(t, text, `sbmlserved_http_requests_total{route="add_model"}`); got != 1 {
		t.Fatalf("add_model route counter = %v, want 1", got)
	}
	// Route histograms count the same requests and have HELP/TYPE headers.
	if got := metricValue(t, text, `sbmlserved_http_request_seconds_count{route="search"}`); got != 3 {
		t.Fatalf("search route histogram count = %v, want 3", got)
	}
	if !strings.Contains(text, "# TYPE sbmlserved_http_request_seconds histogram") {
		t.Fatalf("missing histogram TYPE header:\n%s", text)
	}
	if !strings.Contains(text, `sbmlserved_http_request_seconds_bucket{route="search",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket for search route:\n%s", text)
	}
	// Pipeline stages recorded: the first search compiles, every search
	// retrieves, scores, and merges.
	for _, stage := range []string{"compile", "retrieve", "score", "merge"} {
		if got := metricValue(t, text, fmt.Sprintf(`sbmlserved_stage_seconds_count{stage=%q}`, stage)); got == 0 {
			t.Fatalf("stage %q histogram empty", stage)
		}
	}
	// Two cached repeats skipped decode/parse/compile via the query cache.
	if got := metricValue(t, text, `sbmlserved_stage_seconds_count{stage="compile"}`); got != 1 {
		t.Fatalf("compile stage count = %v, want 1 (cache hits skip it)", got)
	}
	if got := metricValue(t, text, "sbmlserved_query_cache_hits_total"); got != 2 {
		t.Fatalf("query cache hits = %v, want 2", got)
	}
	// The durable add fsynced at least once under the default policy.
	if got := metricValue(t, text, "sbmlstore_wal_fsync_seconds_count"); got == 0 {
		t.Fatal("WAL fsync histogram empty after a durable add")
	}
	if got := metricValue(t, text, "sbmlstore_wal_append_seconds_count"); got == 0 {
		t.Fatal("WAL append histogram empty after a durable add")
	}
}

// Every response carries X-Request-Id, and JSON error bodies echo it, so
// a client-reported failure pins the exact server log line.
func TestRequestIDPropagation(t *testing.T) {
	s := testServer()

	// Generated id on an error response: header and body must agree.
	rec, body := do(t, s, "POST", "/v1/search", "{not json")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad search body: %d", rec.Code)
	}
	rid := rec.Header().Get("X-Request-Id")
	if rid == "" {
		t.Fatal("error response missing X-Request-Id header")
	}
	if body["request_id"] != rid {
		t.Fatalf("error body request_id = %v, header %q — must match", body["request_id"], rid)
	}

	// Inbound ids are honored, not replaced.
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader("{not json"))
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Fatalf("inbound request id not echoed: got %q", got)
	}
	if !strings.Contains(rr.Body.String(), `"request_id":"caller-supplied-42"`) {
		t.Fatalf("error body missing inbound request id: %s", rr.Body.String())
	}

	// Success responses carry the header too (no body echo needed).
	rec, _ = do(t, s, "GET", "/v1/healthz", "")
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("success response missing X-Request-Id header")
	}
}

// /v1/healthz endpoint reports carry histogram-backed percentiles next
// to the historical count and mean, and the shutdown stats lines render
// the same numbers.
func TestHealthzPercentiles(t *testing.T) {
	s := testServer()
	for i := 0; i < 5; i++ {
		if rec, _ := do(t, s, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
			t.Fatalf("healthz #%d: %d", i, rec.Code)
		}
	}
	_, body := do(t, s, "GET", "/v1/healthz", "")
	eps, ok := body["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("healthz endpoints missing: %v", body)
	}
	hz, ok := eps["GET /v1/healthz"].(map[string]any)
	if !ok {
		t.Fatalf("healthz self-report missing: %v", eps)
	}
	for _, k := range []string{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"} {
		if _, ok := hz[k]; !ok {
			t.Fatalf("healthz endpoint report missing %q: %v", k, hz)
		}
	}
	if hz["count"].(float64) < 5 {
		t.Fatalf("healthz count = %v, want >= 5", hz["count"])
	}
	if hz["p99_ms"].(float64) < hz["p50_ms"].(float64) {
		t.Fatalf("p99 %v < p50 %v", hz["p99_ms"], hz["p50_ms"])
	}
	found := false
	for _, line := range s.StatsLines() {
		if strings.Contains(line, "GET /v1/healthz") && strings.Contains(line, "p99") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats lines missing healthz percentiles: %v", s.StatsLines())
	}
}

// Requests past the slow threshold log their request id and per-stage
// breakdown; everything below it logs the plain request line only.
func TestSlowRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 2}), Config{
		SlowRequest: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if rec, _ := do(t, s, "POST", "/v1/models", modelXML("slow_a", 310)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/models: %d", rec.Code)
	}
	searchBody := jsonBody(t, map[string]any{"sbml": modelXML("slow_a", 310), "top_k": 3})
	if rec, _ := do(t, s, "POST", "/v1/search", searchBody); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/search: %d", rec.Code)
	}
	mu.Lock()
	defer mu.Unlock()
	var slow string
	for _, l := range lines {
		if strings.Contains(l, "SLOW") && strings.Contains(l, "/v1/search") {
			slow = l
		}
	}
	if slow == "" {
		t.Fatalf("no SLOW line for /v1/search in %v", lines)
	}
	if !strings.Contains(slow, "rid=") {
		t.Fatalf("slow line missing request id: %q", slow)
	}
	for _, stage := range []string{"decode=", "parse=", "compile=", "score=", "merge="} {
		if !strings.Contains(slow, stage) {
			t.Fatalf("slow line missing stage %q: %q", stage, slow)
		}
	}
}

// The primary's feed responses carry its lag-bytes estimate: positive
// when max_bytes truncated the chunk below the acknowledged tip, zero
// once a fetch reaches it.
func TestReplicationLagBytesHeader(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := NewPersistent(st, Config{})
	for i := 0; i < 4; i++ {
		if rec, _ := do(t, s, "POST", "/v1/models", modelXML(fmt.Sprintf("lag_%d", i), int64(320+i))); rec.Code != http.StatusCreated {
			t.Fatalf("seed POST #%d: %d", i, rec.Code)
		}
	}

	// A tiny max_bytes caps the chunk after the first record; the header
	// must report the bytes still waiting.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/replicate?from=0&max_bytes=64&wait_ms=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("capped replicate fetch: %d", rec.Code)
	}
	lag, err := strconv.ParseInt(rec.Header().Get("X-Replication-Lag-Bytes"), 10, 64)
	if err != nil || lag <= 0 {
		t.Fatalf("X-Replication-Lag-Bytes = %q on a capped fetch, want > 0",
			rec.Header().Get("X-Replication-Lag-Bytes"))
	}

	// An uncapped fetch drains the tail: lag reports zero.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/replicate?from=0&wait_ms=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("full replicate fetch: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Replication-Lag-Bytes"); got != "0" {
		t.Fatalf("X-Replication-Lag-Bytes = %q after draining fetch, want \"0\"", got)
	}
}

// A follower that loses its primary keeps aging: the lag counters freeze
// at their last-contact values, but the seconds-since signals grow and
// Connected drops — the staleness alarm a disconnected replica must raise.
func TestDisconnectedFollowerStalenessGrows(t *testing.T) {
	primaryStore := openTestStore(t, t.TempDir())
	defer primaryStore.Close()
	primary := NewPersistent(primaryStore, Config{})
	for i := 0; i < 3; i++ {
		if rec, _ := do(t, primary, "POST", "/v1/models", modelXML(fmt.Sprintf("st_%d", i), int64(330+i))); rec.Code != http.StatusCreated {
			t.Fatalf("seed POST #%d: %d", i, rec.Code)
		}
	}
	ts := httptest.NewServer(primary)
	defer ts.Close()

	followerStore := openTestStore(t, t.TempDir())
	defer followerStore.Close()
	reg := obs.NewRegistry()
	rep, err := sbmlcompose.StartReplica(followerStore, sbmlcompose.ReplicaOptions{
		PrimaryURL: ts.URL,
		PollWait:   50 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Metrics:    NewReplicaMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	follower := NewPersistent(followerStore, Config{Registry: reg})
	follower.SetReplica(rep)
	waitForSeq(t, followerStore, primaryStore.LastSeq())

	if st := rep.Status(); !st.Connected {
		t.Fatalf("caught-up follower not connected: %+v", st)
	}

	// Cut the primary; the next pull fails and Connected drops.
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for rep.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatal("follower still Connected 10s after primary went away")
		}
		time.Sleep(10 * time.Millisecond)
	}

	first := rep.Status()
	time.Sleep(60 * time.Millisecond)
	second := rep.Status()
	if second.SecondsSinceLastApply <= first.SecondsSinceLastApply {
		t.Fatalf("SecondsSinceLastApply did not grow: %v -> %v",
			first.SecondsSinceLastApply, second.SecondsSinceLastApply)
	}
	if second.SecondsSinceLastContact <= first.SecondsSinceLastContact {
		t.Fatalf("SecondsSinceLastContact did not grow: %v -> %v",
			first.SecondsSinceLastContact, second.SecondsSinceLastContact)
	}
	// The record/byte lags are last-contact data: frozen, not growing.
	if second.LagRecords != first.LagRecords || second.LagBytes != first.LagBytes {
		t.Fatalf("frozen lag drifted while disconnected: %+v -> %+v", first, second)
	}

	// The same signals surface on the follower's metrics endpoint.
	rec := httptest.NewRecorder()
	follower.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	text := rec.Body.String()
	if got := metricValue(t, text, "sbmlrepl_connected"); got != 0 {
		t.Fatalf("sbmlrepl_connected = %v after disconnect, want 0", got)
	}
	if got := metricValue(t, text, "sbmlrepl_last_contact_age_seconds"); got <= 0 {
		t.Fatalf("sbmlrepl_last_contact_age_seconds = %v, want > 0", got)
	}
	// And on /healthz.
	_, health := do(t, follower, "GET", "/v1/healthz", "")
	if health["role"] != "follower" {
		t.Fatalf("follower healthz role = %v", health["role"])
	}
	if v, ok := health["seconds_since_last_apply"].(float64); !ok || v <= 0 {
		t.Fatalf("healthz seconds_since_last_apply = %v, want > 0", health["seconds_since_last_apply"])
	}
	if _, ok := health["replication_lag_bytes"]; !ok {
		t.Fatalf("healthz missing replication_lag_bytes: %v", health)
	}
}
