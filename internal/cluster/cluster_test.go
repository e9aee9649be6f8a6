// Tests for the scatter-gather gateway run real node servers
// (internal/serve over real corpora) behind httptest listeners and pin
// the tentpole contract: a cluster answers /v1/search byte-identically
// to a single-node corpus holding the same models — at every partition
// count, every per-node shard count, cached and uncached — and degrades
// deterministically when a node is down.
package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/cluster"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/serve"
)

func modelXML(id string, seed int64) string {
	m := biomodels.Generate(biomodels.Config{
		ID: id, Nodes: 10, Edges: 14, Seed: seed, VocabularySize: 60, Decorate: true,
	})
	return sbmlcompose.ModelToString(m)
}

// newNode starts one shard node: a real serve.Server over a corpus with
// the given shard count, behind a real TCP listener.
func newNode(t testing.TB, shards int) *httptest.Server {
	t.Helper()
	srv := serve.New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: shards}), serve.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// newCluster starts `partitions` nodes (each corpus with `shards`
// shards) and a gateway over them, with test-speed retry bounds.
func newCluster(t testing.TB, partitions, shards int) (*cluster.Gateway, []*httptest.Server) {
	t.Helper()
	nodes := make([]*httptest.Server, partitions)
	urls := make([]string, partitions)
	for i := range nodes {
		nodes[i] = newNode(t, shards)
		urls[i] = nodes[i].URL
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:       urls,
		NodeTimeout: 10 * time.Second,
		Retries:     2,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gw, nodes
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func jsonBody(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tookMs wipes the one legitimately nondeterministic byte range so the
// rest of the body can be compared byte-for-byte.
var tookMs = regexp.MustCompile(`"took_ms":[0-9.eE+-]+`)

func stripTook(body string) string {
	return tookMs.ReplaceAllString(body, `"took_ms":0`)
}

func seedModels(t *testing.T, h http.Handler, n int, seed0 int64) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("cl_%d", i)
		rec := do(t, h, "POST", "/v1/models", modelXML(ids[i], seed0+int64(i)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("seed %s: %d %s", ids[i], rec.Code, rec.Body.String())
		}
	}
	return ids
}

// --- partition map properties ---

func TestPartitionMapProperties(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	p, err := cluster.NewPartitionMap(urls)
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 400)
	for i := range ids {
		ids[i] = fmt.Sprintf("model_%d", i)
	}

	// Ownership is a function of the node *set*: a map built from the
	// same URLs in reverse (and with trailing slashes) routes identically.
	rev := []string{"http://d:1/", "http://c:1", "http://b:1/", "http://a:1"}
	p2, err := cluster.NewPartitionMap(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if p.Owner(id) != p2.Owner(id) {
			t.Fatalf("owner of %q depends on node order: %q vs %q", id, p.Owner(id), p2.Owner(id))
		}
	}

	// Minimal reassignment: dropping one node moves only that node's ids.
	p3, err := cluster.NewPartitionMap(urls[:3])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if o := p.Owner(id); o != "http://d:1" && p3.Owner(id) != o {
			t.Fatalf("id %q moved from surviving node %q to %q when d left", id, o, p3.Owner(id))
		}
	}

	// Spread: no node starves and no node hoards. With 400 ids over 4
	// nodes a uniform hash keeps every node within a loose [40, 180].
	for node, n := range p.Spread(ids) {
		if n < 40 || n > 180 {
			t.Fatalf("node %s owns %d of 400 ids — partitioning badly skewed", node, n)
		}
	}

	// Constructor rejections.
	for _, bad := range [][]string{
		nil,
		{""},
		{"http://a:1", "http://a:1"},
		{"http://a:1", "http://a:1/"}, // same node modulo normalization
	} {
		if _, err := cluster.NewPartitionMap(bad); err == nil {
			t.Fatalf("NewPartitionMap(%q) accepted", bad)
		}
	}
}

// --- byte-identical scatter-gather ranking ---

// TestClusterSearchByteIdentical is the tentpole pin: for every
// partition count × per-node shard count, every query window answered by
// the gateway is byte-identical (modulo took_ms) to the same query
// against one reference node holding the whole corpus — and repeating
// the query (the nodes' cached path) changes nothing.
func TestClusterSearchByteIdentical(t *testing.T) {
	const nModels = 12
	ref := serve.New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 2}), serve.Config{})
	seedModels(t, ref, nModels, 400)

	queryHit := modelXML("cl_3", 403)   // clone of a stored model
	queryMiss := modelXML("fresh", 999) // related but unstored
	windows := []map[string]any{
		{},
		{"top_k": 3},
		{"top_k": -1},
		{"limit": 4, "offset": 0},
		{"limit": 3, "offset": 2},
		{"limit": 5, "offset": 10},
		{"limit": -1, "offset": 7},
		{"limit": 50, "offset": 0},
		{"top_k": 2, "limit": 2, "offset": 1},
		{"top_k": 4, "min_score": 0.05},
	}

	for _, partitions := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("partitions=%d/shards=%d", partitions, shards), func(t *testing.T) {
				gw, _ := newCluster(t, partitions, shards)
				seedModels(t, gw, nModels, 400)
				for qi, sbmlQ := range []string{queryHit, queryMiss} {
					for wi, win := range windows {
						req := map[string]any{"sbml": sbmlQ}
						for k, v := range win {
							req[k] = v
						}
						body := jsonBody(t, req)
						want := do(t, ref, "POST", "/v1/search", body)
						got := do(t, gw, "POST", "/v1/search", body)
						if want.Code != http.StatusOK || got.Code != want.Code {
							t.Fatalf("query %d window %d: ref %d, gateway %d: %s",
								qi, wi, want.Code, got.Code, got.Body.String())
						}
						if stripTook(got.Body.String()) != stripTook(want.Body.String()) {
							t.Errorf("query %d window %v: cluster ranking diverged from single node\nref: %s\ngot: %s",
								qi, win, want.Body.String(), got.Body.String())
						}
						// The cached pass (same raw node bodies → node query
						// cache hit) must answer the same bytes.
						again := do(t, gw, "POST", "/v1/search", body)
						if stripTook(again.Body.String()) != stripTook(got.Body.String()) {
							t.Errorf("query %d window %v: cached pass diverged\nfirst: %s\nagain: %s",
								qi, win, got.Body.String(), again.Body.String())
						}
					}
				}
			})
		}
	}
}

// TestClusterPaginationTiling pins that pages tile: walking the cluster
// ranking with (offset, limit) windows reassembles exactly the
// unbounded ranking, with no hit lost, duplicated, or reordered at any
// page boundary.
func TestClusterPaginationTiling(t *testing.T) {
	gw, _ := newCluster(t, 3, 2)
	seedModels(t, gw, 10, 500)
	query := modelXML("cl_2", 502)

	full := struct {
		Hits []json.RawMessage `json:"hits"`
	}{}
	rec := do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{"sbml": query, "top_k": -1}))
	if rec.Code != http.StatusOK {
		t.Fatalf("full ranking: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Hits) == 0 {
		t.Fatal("full ranking empty — tiling test needs hits")
	}

	for _, pageSize := range []int{1, 3, 4} {
		var tiled []string
		for offset := 0; ; offset += pageSize {
			rec := do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{
				"sbml": query, "offset": offset, "limit": pageSize,
			}))
			if rec.Code != http.StatusOK {
				t.Fatalf("page offset=%d: %d %s", offset, rec.Code, rec.Body.String())
			}
			var page struct {
				Hits     []json.RawMessage `json:"hits"`
				Offset   int               `json:"offset"`
				Limit    int               `json:"limit"`
				Returned int               `json:"returned"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatal(err)
			}
			if page.Offset != offset || page.Limit != pageSize || page.Returned != len(page.Hits) {
				t.Fatalf("page echo wrong: offset=%d limit=%d returned=%d for requested offset=%d limit=%d hits=%d",
					page.Offset, page.Limit, page.Returned, offset, pageSize, len(page.Hits))
			}
			for _, h := range page.Hits {
				tiled = append(tiled, string(h))
			}
			if len(page.Hits) < pageSize {
				break
			}
		}
		if len(tiled) != len(full.Hits) {
			t.Fatalf("page size %d: tiled %d hits, full ranking has %d", pageSize, len(tiled), len(full.Hits))
		}
		for i := range tiled {
			if tiled[i] != string(full.Hits[i]) {
				t.Fatalf("page size %d: hit %d diverged:\ntiled: %s\nfull:  %s", pageSize, i, tiled[i], full.Hits[i])
			}
		}
	}

	// The gateway applies the same window validation as the nodes.
	rec = do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{
		"sbml": query, "top_k": 3, "limit": 5,
	}))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "disagree") {
		t.Fatalf("limit/top_k disagreement through gateway: %d %s", rec.Code, rec.Body.String())
	}
}

// --- write routing ---

func TestClusterWriteRoutesToOwner(t *testing.T) {
	gw, nodes := newCluster(t, 3, 2)
	ids := seedModels(t, gw, 9, 600)

	// Every model landed on exactly the node the partition map names.
	parts := gw.Partition()
	nodeModels := func(ts *httptest.Server) int {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Models int `json:"models"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Models
	}
	want := parts.Spread(ids)
	total := 0
	for _, ts := range nodes {
		n := nodeModels(ts)
		if n != want[ts.URL] {
			t.Errorf("node %s holds %d models, partition map says %d", ts.URL, n, want[ts.URL])
		}
		total += n
	}
	if total != len(ids) {
		t.Fatalf("fleet holds %d models, want %d", total, len(ids))
	}

	// Node answers relay verbatim: duplicate add is the owner's 409.
	rec := do(t, gw, "POST", "/v1/models", modelXML("cl_0", 600))
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate add via gateway: %d %s", rec.Code, rec.Body.String())
	}
	// ?id= override routes by the override, like the node stores by it.
	rec = do(t, gw, "POST", "/v1/models?id=renamed", modelXML("cl_0", 601))
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"renamed"`) {
		t.Fatalf("add with ?id= via gateway: %d %s", rec.Code, rec.Body.String())
	}
	// A body whose id only a namespace-aware read or entity decoding
	// gives lands on that id's owner and is removable through the gateway.
	nsBody := modelXML("ns_model", 602)
	nsBody = strings.Replace(nsBody, "<sbml ", `<s:sbml xmlns:s="`+sbml.Namespace+`" `, 1)
	nsBody = strings.Replace(nsBody, "</sbml>", "</s:sbml>", 1)
	nsBody = strings.Replace(nsBody, `<model id="ns_model"`, `<s:model id="ns_model"`, 1)
	nsBody = strings.Replace(nsBody, "</model>", "</s:model>", 1)
	entBody := strings.Replace(modelXML("ent_model", 603), `<model id="ent_model"`, `<model id="ent&#95;m&#x6F;del"`, 1)
	for _, tc := range []struct{ id, body string }{{"ns_model", nsBody}, {"ent_model", entBody}} {
		if strings.Contains(tc.body, `<model id="`+tc.id+`"`) {
			t.Fatalf("%s: body rewrite did not apply", tc.id)
		}
		owner := parts.Owner(tc.id)
		before := map[string]int{}
		for _, ts := range nodes {
			before[ts.URL] = nodeModels(ts)
		}
		rec := do(t, gw, "POST", "/v1/models", tc.body)
		if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"`+tc.id+`"`) {
			t.Fatalf("add %s via gateway: %d %s", tc.id, rec.Code, rec.Body.String())
		}
		for _, ts := range nodes {
			want := before[ts.URL]
			if ts.URL == owner {
				want++
			}
			if n := nodeModels(ts); n != want {
				t.Errorf("add %s: node %s holds %d models, want %d (owner %s)", tc.id, ts.URL, n, want, owner)
			}
		}
		rec = do(t, gw, "DELETE", "/v1/models/"+tc.id, "")
		if rec.Code != http.StatusNoContent {
			t.Fatalf("delete %s via gateway: %d %s", tc.id, rec.Code, rec.Body.String())
		}
	}

	// Model-addressed routes reach the owner: simulate works for every id
	// through the same gateway URL regardless of which node holds it.
	for _, id := range ids {
		rec := do(t, gw, "POST", "/v1/simulate", jsonBody(t, map[string]any{
			"id": id, "t0": 0, "t1": 0.5, "step": 0.1,
		}))
		if rec.Code != http.StatusOK {
			t.Fatalf("simulate %s via gateway: %d %s", id, rec.Code, rec.Body.String())
		}
	}
	// Unknown and empty ids answer the node's not-found shape.
	rec = do(t, gw, "POST", "/v1/compose", jsonBody(t, map[string]any{"id": "nope", "sbml": modelXML("q", 1)}))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("compose unknown id: %d", rec.Code)
	}
	rec = do(t, gw, "POST", "/v1/check", `{"formula": "G({x >= 0})"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("check with empty id: %d", rec.Code)
	}
	rec = do(t, gw, "POST", "/v1/simulate", "{bad json")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("simulate bad json: %d", rec.Code)
	}

	// DELETE routes to the owner and relays its answer; the model is gone
	// from the fleet afterwards.
	rec = do(t, gw, "DELETE", "/v1/models/"+url.PathEscape(ids[4]), "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete via gateway: %d", rec.Code)
	}
	rec = do(t, gw, "DELETE", "/v1/models/"+url.PathEscape(ids[4]), "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("second delete via gateway: %d", rec.Code)
	}
}

// --- degraded mode ---

func TestClusterDegradedSearch(t *testing.T) {
	gw, nodes := newCluster(t, 3, 1)
	ids := seedModels(t, gw, 9, 700)
	query := modelXML("cl_1", 701)
	body := jsonBody(t, map[string]any{"sbml": query, "top_k": -1})

	// Down one node that owns some but not all of the ids: the partition
	// hashes the test servers' random ports, so which node that is varies
	// between runs. Which ids died with it determines the partial set.
	parts := gw.Partition()
	var down *httptest.Server
	var surviving []string
	for _, n := range nodes {
		surviving = surviving[:0]
		for _, id := range ids {
			if parts.Owner(id) != n.URL {
				surviving = append(surviving, id)
			}
		}
		if len(surviving) > 0 && len(surviving) < len(ids) {
			down = n
			break
		}
	}
	if down == nil {
		t.Fatalf("degenerate partition: one node owns all %d ids", len(ids))
	}
	down.Close()

	// Default: refuse with 503 and the machine-readable partial code.
	rec := do(t, gw, "POST", "/v1/search", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("search with node down: %d %s", rec.Code, rec.Body.String())
	}
	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "partial" || !strings.Contains(er.Error, down.URL) {
		t.Fatalf("degraded refusal should carry code=partial and name %s: %+v", down.URL, er)
	}

	// Explicit opt-in: the merged ranking of the surviving nodes, marked
	// partial with the dead node listed.
	rec = do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{
		"sbml": query, "top_k": -1, "allow_partial": true,
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("allow_partial search: %d %s", rec.Code, rec.Body.String())
	}
	var partial struct {
		Hits []struct {
			ModelID string  `json:"model_id"`
			Score   float64 `json:"score"`
		} `json:"hits"`
		Partial     bool     `json:"partial"`
		FailedNodes []string `json:"failed_nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || len(partial.FailedNodes) != 1 || partial.FailedNodes[0] != down.URL {
		t.Fatalf("partial response not marked: %s", rec.Body.String())
	}
	got := make([]string, len(partial.Hits))
	for i, h := range partial.Hits {
		got[i] = h.ModelID
	}
	sort.Strings(got)
	sort.Strings(surviving)
	// min_score 0 keeps every stored model in an unbounded ranking, so
	// the partial answer is exactly the surviving ids.
	if strings.Join(got, ",") != strings.Join(surviving, ",") {
		t.Fatalf("partial hits %v, want surviving ids %v", got, surviving)
	}
	for i := 1; i < len(partial.Hits); i++ {
		a, b := partial.Hits[i-1], partial.Hits[i]
		if a.Score < b.Score || (a.Score == b.Score && a.ModelID > b.ModelID) {
			t.Fatalf("partial ranking out of order at %d: %+v then %+v", i, a, b)
		}
	}

	// A complete answer never carries the partial fields (bytes stay
	// identical to a single node's): checked implicitly by the
	// byte-identity test; here pin a write to a dead owner → 502.
	var deadID string
	for _, id := range ids {
		if parts.Owner(id) == down.URL {
			deadID = id
			break
		}
	}
	rec = do(t, gw, "POST", "/v1/simulate", jsonBody(t, map[string]any{
		"id": deadID, "t0": 0, "t1": 0.5, "step": 0.1,
	}))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "node_unreachable") {
		t.Fatalf("write to dead owner: %d %s", rec.Code, rec.Body.String())
	}

	// Health aggregates to degraded while staying 200 (gateway liveness).
	rec = do(t, gw, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
		Models int    `json:"models"`
		Nodes  []struct {
			URL    string `json:"url"`
			Status string `json:"status"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Role != "gateway" {
		t.Fatalf("health with node down: %+v", health)
	}
	if health.Models != len(surviving) {
		t.Fatalf("degraded health models = %d, want surviving %d", health.Models, len(surviving))
	}
	downSeen := false
	for _, n := range health.Nodes {
		if n.URL == down.URL {
			downSeen = n.Status == "down"
		}
	}
	if !downSeen {
		t.Fatalf("health does not report %s down: %s", down.URL, rec.Body.String())
	}

	// All nodes down → 503 regardless of allow_partial.
	for _, ts := range nodes {
		ts.Close()
	}
	rec = do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{
		"sbml": query, "allow_partial": true,
	}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("search with fleet down: %d %s", rec.Code, rec.Body.String())
	}
}

// TestClusterRelaysQueryErrors pins that a query every node rejects the
// same way (unparseable SBML → 400) relays the node's answer instead of
// masquerading as a gateway fault.
func TestClusterRelaysQueryErrors(t *testing.T) {
	gw, _ := newCluster(t, 2, 1)
	seedModels(t, gw, 2, 800)
	rec := do(t, gw, "POST", "/v1/search", jsonBody(t, map[string]any{"sbml": "<not-sbml"}))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable query via gateway: %d %s", rec.Code, rec.Body.String())
	}
	rec = do(t, gw, "POST", "/v1/search", `{"sbml": "x", "bogus_field": 1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field via gateway: %d", rec.Code)
	}
}

// TestClusterForwardedRoutesAnswerLikeANode pins the forwarding
// contract: the gateway never answers a model-addressed route itself, so
// a body with no usable id — undecodable, id missing or not a string, or
// followed by trailing bytes — and an add whose id names no storable
// model get the status, error text and code a single node gives.
func TestClusterForwardedRoutesAnswerLikeANode(t *testing.T) {
	gw, _ := newCluster(t, 3, 1)
	node := serve.New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 1}), serve.Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/check", `{"formula":"G(((("}`},
		{"/v1/simulate", `{"method":"bogus"}`},
		{"/v1/compose", `{"sbml":"<bad"}`},
		{"/v1/compose", `{"bogus":1}`},
		{"/v1/simulate", `{"id":"a"} trailing`},
		{"/v1/check", `{"formula":"G({x >= 0})"}`},
		{"/v1/check", `{"id":5}`},
		{"/v1/models", `<bad`},
		// Adds whose prefix names an id the rest of the body does not
		// back up: the gateway routes them to that id's owner, which
		// rejects them as any node would.
		{"/v1/models", `<sbml><model id="x">`},
		{"/v1/models", `<notsbml><model id="x"/></notsbml>`},
		{"/v1/models", `<sbml level="two"><model id="x"/></sbml>`},
		{"/v1/models?id=x", `<bad`},
	} {
		answer := func(h http.Handler) (int, string, string) {
			rec := do(t, h, "POST", tc.path, tc.body)
			var er struct{ Error, Code string }
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("POST %s %s: non-JSON answer %q", tc.path, tc.body, rec.Body.String())
			}
			return rec.Code, er.Error, er.Code
		}
		gs, ge, gc := answer(gw)
		ns, ne, nc := answer(node)
		if gs != ns || ge != ne || gc != nc {
			t.Errorf("POST %s %s: gateway %d %q %q, node %d %q %q", tc.path, tc.body, gs, ge, gc, ns, ne, nc)
		}
	}
}

// --- request-id propagation and retries ---

// recordingProxy forwards to a node while recording the X-Request-Id of
// every forwarded request, and can drop the first n connections to
// exercise the transport retry path.
type recordingProxy struct {
	mu       sync.Mutex
	seen     []string
	failures int
	backend  http.Handler
}

func (p *recordingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.seen = append(p.seen, r.Header.Get("X-Request-Id"))
	fail := p.failures > 0
	if fail {
		p.failures--
	}
	p.mu.Unlock()
	if fail {
		// Kill the connection without an HTTP answer: a transport-level
		// failure, the kind the gateway retries.
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("recordingProxy: no hijack support")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	p.backend.ServeHTTP(w, r)
}

func TestClusterRequestIDPropagationAndRetry(t *testing.T) {
	backend := serve.New(sbmlcompose.NewCorpus(&sbmlcompose.CorpusOptions{Shards: 1}), serve.Config{})
	proxy := &recordingProxy{backend: backend}
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	gw, err := cluster.New(cluster.Options{
		Nodes:      []string{ts.URL},
		Retries:    3,
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A valid inbound id rides through to the node and back out.
	req := httptest.NewRequest("POST", "/v1/models", strings.NewReader(modelXML("rid_m", 900)))
	req.Header.Set("X-Request-Id", "ci-cluster-42")
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add via gateway: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Request-Id") != "ci-cluster-42" {
		t.Fatalf("gateway did not echo the inbound id: %q", rec.Header().Get("X-Request-Id"))
	}
	proxy.mu.Lock()
	last := proxy.seen[len(proxy.seen)-1]
	proxy.mu.Unlock()
	if last != "ci-cluster-42" {
		t.Fatalf("node saw request id %q, want the inbound id", last)
	}

	// An unsafe inbound id is replaced before it reaches the node.
	req = httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "evil\x01id")
	rec = httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	minted := rec.Header().Get("X-Request-Id")
	if minted == "evil\x01id" || !regexp.MustCompile(`^[0-9a-f]{10}-[0-9]+$`).MatchString(minted) {
		t.Fatalf("unsafe inbound id came back as %q", minted)
	}
	proxy.mu.Lock()
	last = proxy.seen[len(proxy.seen)-1]
	proxy.mu.Unlock()
	if last != minted {
		t.Fatalf("node saw %q, gateway minted %q", last, minted)
	}

	// Transport failures retry with backoff: two dropped connections
	// still end in the node's answer on the third attempt.
	proxy.mu.Lock()
	proxy.failures = 2
	before := len(proxy.seen)
	proxy.mu.Unlock()
	rec2 := do(t, gw, "POST", "/v1/simulate", jsonBody(t, map[string]any{
		"id": "rid_m", "t0": 0, "t1": 0.5, "step": 0.1,
	}))
	if rec2.Code != http.StatusOK {
		t.Fatalf("simulate after transport failures: %d %s", rec2.Code, rec2.Body.String())
	}
	proxy.mu.Lock()
	attempts := len(proxy.seen) - before
	proxy.mu.Unlock()
	if attempts != 3 {
		t.Fatalf("saw %d attempts, want 3 (2 failures + success)", attempts)
	}

	// The per-node fan-out series recorded the traffic.
	var metrics strings.Builder
	if err := gw.Registry().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`sbmlgw_node_requests_total{node="` + ts.URL + `"}`,
		`sbmlgw_node_errors_total{node="` + ts.URL + `"} 2`,
		`sbmlgw_http_requests_total{route="simulate"}`,
		"sbmlgw_nodes 1",
	} {
		if !strings.Contains(metrics.String(), series) {
			t.Errorf("metrics missing %q:\n%s", series, metrics.String())
		}
	}
}

// TestOpenGatewayFacade pins the embedder surface: Client.OpenGateway
// returns a serving Gateway with defaulted options.
func TestOpenGatewayFacade(t *testing.T) {
	node := newNode(t, 1)
	gw, err := sbmlcompose.New().OpenGateway([]string{node.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, gw, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"role":"gateway"`) {
		t.Fatalf("facade gateway healthz: %d %s", rec.Code, rec.Body.String())
	}
	if _, err := sbmlcompose.New().OpenGateway(nil, nil); err == nil {
		t.Fatal("OpenGateway with no nodes accepted")
	}
}

// BenchmarkGatewayAdd measures POST /v1/models through a gateway over 3
// in-process nodes of 4 shards: the gateway's routing and node hop plus
// the owner's parse, compile and insert. Each op adds a fresh id; the
// bodies follow sbmlbench's genModel size schedule (6–24 species).
func BenchmarkGatewayAdd(b *testing.B) {
	gw, _ := newCluster(b, 3, 4)
	const tmplID = "gwadd_tmpl"
	type split struct{ head, tail string }
	bodies := make([]split, 19)
	for i := range bodies {
		nodes := 6 + i*7%19
		body := sbmlcompose.ModelToString(biomodels.Generate(biomodels.Config{
			ID: tmplID, Nodes: nodes, Edges: nodes + i*11%(nodes+1), Seed: int64(i + 1),
			VocabularySize: 300, Decorate: true,
		}))
		tag := `<model id="` + tmplID + `"`
		k := strings.Index(body, tag)
		if k < 0 {
			b.Fatalf("template %d has no %s", i, tag)
		}
		bodies[i] = split{body[:k] + `<model id="`, `"` + body[k+len(tag):]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := bodies[i%len(bodies)]
		req := httptest.NewRequest("POST", "/v1/models", strings.NewReader(t.head+"gwadd_"+strconv.Itoa(i)+t.tail))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("add %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
}
