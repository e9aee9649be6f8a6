package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"sbmlcompose/internal/api"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/sbml"
)

// Options configures a Gateway; see New.
type Options struct {
	// Nodes are the shard node base URLs (e.g. "http://10.0.0.1:8451").
	// The set — not the order — determines id ownership.
	Nodes []string
	// Registry receives the gateway's metric series; nil creates a
	// private registry (still served at /v1/metrics).
	Registry *obs.Registry
	// Client is the HTTP client for node requests; nil builds one with a
	// transport sized for fan-out (idle connections to every node).
	Client *http.Client
	// NodeTimeout caps each node request attempt; 0 defaults to 30s.
	NodeTimeout time.Duration
	// Retries bounds transport-failure attempts per node request
	// (HTTP statuses are never retried); 0 defaults to 3.
	Retries int
	// MinBackoff and MaxBackoff bound the capped exponential backoff
	// (with jitter) between transport retries; they default to 50ms and 1s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Logf, when non-nil, receives one structured line per request plus
	// degraded-mode lines. Nil keeps the gateway silent.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 30 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.MinBackoff <= 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	if o.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		o.Client = &http.Client{Transport: tr}
	}
	return o
}

// Gateway is the scatter-gather coordinator: an http.Handler serving the
// node /v1 surface over a partitioned fleet. Write routes forward to the
// owning node; /v1/search fans out and merges; /v1/healthz aggregates
// node health. It holds no model state of its own — any number of
// gateways over the same node set are interchangeable.
type Gateway struct {
	parts *PartitionMap
	nodes map[string]*nodeClient
	edge  *api.Edge
	reg   *obs.Registry
	start time.Time
	logf  func(format string, args ...any)

	// partialServed counts searches answered with an incomplete node set
	// under allow_partial; degradedTotal counts searches refused 503
	// because a node was down.
	partialServed *obs.Counter
	degradedTotal *obs.Counter
}

// New builds a Gateway over the node set.
func New(opts Options) (*Gateway, error) {
	parts, err := NewPartitionMap(opts.Nodes)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gateway{
		parts: parts,
		nodes: make(map[string]*nodeClient, len(parts.nodes)),
		edge: api.NewEdge("sbmlgw", opts.Logf, func(label string) api.RouteStat {
			return api.RouteStat{
				Count: reg.Counter("sbmlgw_http_requests_total",
					"Gateway requests served, by route.", obs.L("route", label)),
				Lat: reg.Histogram("sbmlgw_http_request_seconds",
					"Gateway request latency in seconds, by route.", obs.LatencyBuckets(),
					obs.L("route", label)),
			}
		}),
		reg:   reg,
		start: time.Now(),
		logf:  opts.Logf,
	}
	for _, base := range parts.nodes {
		g.nodes[base] = &nodeClient{
			base:     base,
			hc:       opts.Client,
			timeout:  opts.NodeTimeout,
			attempts: opts.Retries,
			backoff:  api.Backoff{Min: opts.MinBackoff, Max: opts.MaxBackoff},
			requests: reg.Counter("sbmlgw_node_requests_total",
				"Node requests issued by the gateway, by node.", obs.L("node", base)),
			errors: reg.Counter("sbmlgw_node_errors_total",
				"Node request transport failures, by node.", obs.L("node", base)),
			lat: reg.Histogram("sbmlgw_node_request_seconds",
				"Node round-trip latency in seconds, by node.", obs.LatencyBuckets(),
				obs.L("node", base)),
		}
	}
	g.reg.GaugeFunc("sbmlgw_in_flight_requests",
		"Gateway requests currently executing.",
		func() float64 { return float64(g.edge.InFlight()) })
	g.reg.Gauge("sbmlgw_nodes",
		"Configured shard nodes.").Set(int64(len(parts.nodes)))
	g.partialServed = g.reg.Counter("sbmlgw_partial_searches_total",
		"Searches answered from an incomplete node set under allow_partial.")
	g.degradedTotal = g.reg.Counter("sbmlgw_degraded_refusals_total",
		"Searches refused 503 because a shard node was unreachable.")

	g.edge.Route("POST /v1/models", "add_model", g.handleAddModel)
	g.edge.Route("DELETE /v1/models/{id}", "remove_model", g.handleRemoveModel)
	g.edge.Route("POST /v1/search", "search", g.handleSearch)
	g.edge.Route("POST /v1/compose", "compose", g.forwardByID)
	g.edge.Route("POST /v1/simulate", "simulate", g.forwardByID)
	g.edge.Route("POST /v1/check", "check", g.forwardByID)
	g.edge.Route("GET /v1/healthz", "healthz", g.handleHealthz)
	g.edge.Route("GET /healthz", "healthz_legacy", g.handleHealthz)
	g.edge.Route("GET /v1/metrics", "metrics", api.MetricsHandler(reg))
	return g, nil
}

// Partition exposes the gateway's partition map (routing diagnostics,
// benchmarks).
func (g *Gateway) Partition() *PartitionMap { return g.parts }

// Registry returns the gateway's metric registry.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.edge.ServeHTTP(w, r) }

// forward sends the request to the node owning id and relays its answer.
// An owner that stays unreachable through the retry budget is reported
// as 502 with the machine-readable "node_unreachable" code, naming the
// node so the operator knows which shard is down.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, id, method, path, rawQuery string, body []byte) {
	owner := g.parts.Owner(id)
	resp, err := g.nodes[owner].do(r.Context(), method, path, rawQuery, body, api.RequestID(w))
	if err != nil {
		if g.logf != nil {
			g.logf("sbmlgw: node %s unreachable: %v", owner, err)
		}
		api.WriteJSON(w, http.StatusBadGateway, api.ErrorResponse{
			Error: fmt.Sprintf("shard node %s unreachable: %v", owner, err),
			Code:  "node_unreachable",
		})
		return
	}
	relay(w, resp)
}

// relay copies a node's answer to the client verbatim: status, content
// type, body. The gateway adds nothing — a forwarded route must behave
// exactly like talking to the owning node directly.
func relay(w http.ResponseWriter, resp *nodeResponse) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if lag := resp.header.Get("X-Replica-Lag-Seq"); lag != "" {
		w.Header().Set("X-Replica-Lag-Seq", lag)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// --- write routes ---

// handleAddModel routes POST /v1/models to the owning node. The id comes
// from the ?id= override when present, else from sbml.ModelID, which reads
// the body only up to the model's start tag — the same precedence the node
// applies, so for every body a node stores the gateway routes it to the
// owner of the id it is stored under. The gateway never parses a model;
// the owner does, once. A body the node rejects goes to whichever owner
// its ?id= or prefix names (Owner("") when neither gives one), and every
// node rejects it with the same answer.
func (g *Gateway) handleAddModel(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		id = sbml.ModelID(string(body))
	}
	g.forward(w, r, id, http.MethodPost, "/v1/models", r.URL.RawQuery, body)
}

func (g *Gateway) handleRemoveModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.forward(w, r, id, http.MethodDelete, "/v1/models/"+url.PathEscape(id), "", nil)
}

// forwardByID routes the model-addressed JSON routes (/v1/compose,
// /v1/simulate, /v1/check) to the node owning the "id" field of the
// request body; the body is forwarded verbatim and the node's answer
// relayed, whatever the body holds. The id is read the way the node
// reads it — the first JSON value, trailing bytes ignored — and a body
// with no string id goes to Owner(""), so a node judges every malformed
// body by its own rules.
func (g *Gateway) forwardByID(w http.ResponseWriter, r *http.Request) {
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	// A decode error leaves the id as far as it got; the node reports
	// the error.
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(&probe)
	g.forward(w, r, probe.ID, http.MethodPost, r.URL.Path, "", body)
}

// --- fan-out: search and health ---

// nodeResult is one node's answer to a fanned-out request.
type nodeResult struct {
	node string
	resp *nodeResponse
	err  error
}

// fanOut sends the same request to every node concurrently and returns
// the answers in partition-map node order.
func (g *Gateway) fanOut(w http.ResponseWriter, r *http.Request, method, path string, body []byte) []nodeResult {
	results := make([]nodeResult, len(g.parts.nodes))
	var wg sync.WaitGroup
	for i, node := range g.parts.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.nodes[node].do(r.Context(), method, path, "", body, api.RequestID(w))
			results[i] = nodeResult{node: node, resp: resp, err: err}
		}()
	}
	wg.Wait()
	return results
}

// handleSearch is the scatter-gather read path. Every node is asked for
// the ranking prefix [0, offset+limit) of its own partition — a page
// deeper in the merged ranking can draw all its hits from one node, so
// nothing less than the full prefix suffices — and the per-node rankings
// are merged and the window cut by corpus.RankWindow, the function a
// single node cuts its own page with. Partitioning assigns each model to
// exactly one node, so the merge never deduplicates.
//
// Node failures degrade deterministically: by default the search is
// refused with 503 and the machine-readable "partial" code naming the
// unreachable nodes; a request with "allow_partial": true instead gets
// the merged ranking of the reachable nodes, marked Partial with the
// failed nodes listed. A complete answer carries neither field and is
// byte-identical to a single-node corpus response (modulo took_ms).
func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.SearchRequest
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	win, err := api.NormalizeWindow(req.TopK, req.Limit, req.Offset)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "search: %v", err)
		return
	}

	// Every node gets the identical [0, End) request — byte-identical
	// bodies, so repeated cluster queries hit the nodes' raw-body query
	// caches exactly like repeated single-node queries.
	nodeReq, err := json.Marshal(api.SearchRequest{
		SBML: req.SBML, TopK: win.End(), Cutoff: req.Cutoff, MinScore: req.MinScore,
	})
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "encode node request: %v", err)
		return
	}
	results := g.fanOut(w, r, http.MethodPost, "/v1/search", nodeReq)

	var (
		hits       []corpus.Hit
		answered   int
		failed     []string
		statuses   []nodeResult
		allFailed  = true
		sameStatus = -1
	)
	for _, res := range results {
		switch {
		case res.err != nil:
			failed = append(failed, res.node)
		case res.resp.status != http.StatusOK:
			statuses = append(statuses, res)
			if sameStatus == -1 {
				sameStatus = res.resp.status
			} else if sameStatus != res.resp.status {
				sameStatus = -2
			}
		default:
			allFailed = false
			var nr api.SearchResponse
			if err := json.Unmarshal(res.resp.body, &nr); err != nil {
				// A node answering 200 with an undecodable body is as
				// unreachable as one not answering at all.
				failed = append(failed, res.node)
				continue
			}
			hits = append(hits, nr.Hits...)
			answered++
		}
	}

	// Non-200 node statuses: the query itself was rejected (unparseable
	// SBML → 400, uncompilable → 422, timeout → 408). Every node judges
	// the same query by the same rules, so when all answering nodes agree
	// relay the first answer verbatim; disagreement means a heterogeneous
	// fleet, reported as a gateway fault.
	if len(statuses) > 0 {
		if answered == 0 && len(failed) == 0 && sameStatus > 0 {
			relay(w, statuses[0].resp)
			return
		}
		for _, res := range statuses {
			failed = append(failed, res.node)
		}
		allFailed = allFailed && answered == 0
	}

	if len(failed) > 0 {
		sort.Strings(failed)
		if allFailed {
			g.degradedTotal.Inc()
			api.WriteJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
				Error: fmt.Sprintf("no shard node reachable (%s)", strings.Join(failed, ", ")),
				Code:  "partial",
			})
			return
		}
		if !req.AllowPartial {
			g.degradedTotal.Inc()
			if g.logf != nil {
				g.logf("sbmlgw: search degraded, nodes down: %s", strings.Join(failed, ", "))
			}
			api.WriteJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
				Error: fmt.Sprintf("shard nodes unreachable: %s; retry, or set allow_partial for an incomplete ranking", strings.Join(failed, ", ")),
				Code:  "partial",
			})
			return
		}
		g.partialServed.Inc()
	}

	hits = corpus.RankWindow(hits, win.Offset, win.Limit)
	if hits == nil {
		hits = []corpus.Hit{}
	}
	resp := api.SearchResponse{
		Hits:     hits,
		Offset:   win.Offset,
		Limit:    win.Limit,
		Returned: len(hits),
		TookMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	if len(failed) > 0 {
		resp.Partial = true
		resp.FailedNodes = failed
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// --- health and metrics ---

// nodeHealth is one node's row in the aggregated health report.
type nodeHealth struct {
	URL    string `json:"url"`
	Status string `json:"status"` // "ok" | "down"
	Models int    `json:"models"`
	Error  string `json:"error,omitempty"`
}

// gatewayHealth is the gateway's /v1/healthz payload: fleet status plus
// per-node rows. Status is "ok" when every node answered, "degraded"
// otherwise; the HTTP status stays 200 either way (the gateway itself is
// alive — liveness probes must not recycle a gateway because a shard is
// down), with the degradation machine-readable in the body.
type gatewayHealth struct {
	Status string       `json:"status"`
	Role   string       `json:"role"`
	Nodes  []nodeHealth `json:"nodes"`
	// Models is the fleet total over reachable nodes — the cluster
	// corpus size when status is "ok", a lower bound when degraded.
	Models   int     `json:"models"`
	InFlight int64   `json:"in_flight"`
	UptimeS  float64 `json:"uptime_s"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	results := g.fanOut(w, r, http.MethodGet, "/v1/healthz", nil)
	rows := make([]nodeHealth, len(results))
	for i, res := range results {
		rows[i] = nodeHealth{URL: res.node, Status: "down"}
		switch {
		case res.err != nil:
			rows[i].Error = res.err.Error()
		case res.resp.status != http.StatusOK:
			rows[i].Error = fmt.Sprintf("healthz answered %d", res.resp.status)
		default:
			var nh struct {
				Models int `json:"models"`
			}
			if err := json.Unmarshal(res.resp.body, &nh); err != nil {
				rows[i].Error = fmt.Sprintf("healthz undecodable: %v", err)
			} else {
				rows[i].Status = "ok"
				rows[i].Models = nh.Models
			}
		}
	}
	payload := gatewayHealth{
		Status:   "ok",
		Role:     "gateway",
		Nodes:    rows,
		InFlight: g.edge.InFlight(),
		UptimeS:  time.Since(g.start).Seconds(),
	}
	for _, row := range rows {
		if row.Status != "ok" {
			payload.Status = "degraded"
			continue
		}
		payload.Models += row.Models
	}
	api.WriteJSON(w, http.StatusOK, payload)
}
