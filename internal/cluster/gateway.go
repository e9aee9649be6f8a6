package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbmlcompose/internal/api"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/sbml"
)

// maxBodyBytes caps gateway request bodies, matching the node servers.
const maxBodyBytes = 64 << 20

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
	opts  Options
	mux   *http.ServeMux
	reg   *obs.Registry
	start time.Time
	logf  func(format string, args ...any)

	// Request-id minting, same hygiene as the node servers: crypto/rand
	// prefix, inbound ids adopted only when printable-safe.
	ridPrefix string
	ridSeq    atomic.Uint64

	inFlight atomic.Int64
	// partialServed counts searches answered with an incomplete node set
	// under allow_partial; degradedTotal counts searches refused 503
	// because a node was down.
	partialServed *obs.Counter
	degradedTotal *obs.Counter

	stats map[string]*routeStat
}

type routeStat struct {
	count *obs.Counter
	lat   *obs.Histogram
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
		parts:     parts,
		nodes:     make(map[string]*nodeClient, len(parts.nodes)),
		opts:      opts,
		mux:       http.NewServeMux(),
		reg:       reg,
		start:     time.Now(),
		logf:      opts.Logf,
		ridPrefix: newRIDPrefix(),
		stats:     map[string]*routeStat{},
	}
	for _, base := range parts.nodes {
		g.nodes[base] = &nodeClient{
			base:       base,
			hc:         opts.Client,
			timeout:    opts.NodeTimeout,
			attempts:   opts.Retries,
			minBackoff: opts.MinBackoff,
			maxBackoff: opts.MaxBackoff,
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
		func() float64 { return float64(g.inFlight.Load()) })
	g.reg.Gauge("sbmlgw_nodes",
		"Configured shard nodes.").Set(int64(len(parts.nodes)))
	g.partialServed = g.reg.Counter("sbmlgw_partial_searches_total",
		"Searches answered from an incomplete node set under allow_partial.")
	g.degradedTotal = g.reg.Counter("sbmlgw_degraded_refusals_total",
		"Searches refused 503 because a shard node was unreachable.")

	g.route("POST /v1/models", "add_model", g.handleAddModel)
	g.route("DELETE /v1/models/{id}", "remove_model", g.handleRemoveModel)
	g.route("POST /v1/search", "search", g.handleSearch)
	g.route("POST /v1/compose", "compose", g.forwardByID)
	g.route("POST /v1/simulate", "simulate", g.forwardByID)
	g.route("POST /v1/check", "check", g.forwardByID)
	g.route("GET /v1/healthz", "healthz", g.handleHealthz)
	g.route("GET /healthz", "healthz_legacy", g.handleHealthz)
	g.route("GET /v1/metrics", "metrics", g.handleMetrics)
	return g, nil
}

// Partition exposes the gateway's partition map (routing diagnostics,
// benchmarks).
func (g *Gateway) Partition() *PartitionMap { return g.parts }

// Registry returns the gateway's metric registry.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

func newRIDPrefix() string {
	var b [5]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (g *Gateway) requestID(r *http.Request) string {
	if rid := r.Header.Get("X-Request-Id"); api.ValidRequestID(rid) {
		return rid
	}
	return g.ridPrefix + "-" + strconv.FormatUint(g.ridSeq.Add(1), 10)
}

// respWriter carries the request id for error-body echoes and captures
// the status for logging, like the node server's middleware.
type respWriter struct {
	http.ResponseWriter
	reqID  string
	status int
}

func (w *respWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (g *Gateway) route(pattern, label string, h func(http.ResponseWriter, *http.Request)) {
	st := &routeStat{
		count: g.reg.Counter("sbmlgw_http_requests_total",
			"Gateway requests served, by route.", obs.L("route", label)),
		lat: g.reg.Histogram("sbmlgw_http_request_seconds",
			"Gateway request latency in seconds, by route.", obs.LatencyBuckets(),
			obs.L("route", label)),
	}
	g.stats[pattern] = st
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := g.requestID(r)
		rw := &respWriter{ResponseWriter: w, reqID: rid, status: http.StatusOK}
		rw.Header().Set("X-Request-Id", rid)
		h(rw, r)
		d := time.Since(t0)
		st.count.Inc()
		st.lat.Observe(d.Seconds())
		if g.logf != nil {
			g.logf("sbmlgw: %s %s status=%d dur=%.3fms rid=%s", r.Method, r.URL.Path, rw.status, float64(d.Nanoseconds())/1e6, rid)
		}
	})
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	g.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	if er, isErr := v.(api.ErrorResponse); isErr && er.RequestID == "" {
		if rw, wrapped := w.(*respWriter); wrapped {
			er.RequestID = rw.reqID
			v = er
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeNodeError reports an owning node that stayed unreachable through
// the retry budget: 502 with the machine-readable "node_unreachable"
// code, naming the node so the operator knows which shard is down.
func (g *Gateway) writeNodeError(w http.ResponseWriter, node string, err error) {
	if g.logf != nil {
		g.logf("sbmlgw: node %s unreachable: %v", node, err)
	}
	writeJSON(w, http.StatusBadGateway, api.ErrorResponse{
		Error: fmt.Sprintf("shard node %s unreachable: %v", node, err),
		Code:  "node_unreachable",
	})
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

func reqID(w http.ResponseWriter) string {
	if rw, ok := w.(*respWriter); ok {
		return rw.reqID
	}
	return ""
}

// readBody drains the (size-capped) request body, reporting over-limit
// and transport failures as a 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: %v", err)
		return nil, false
	}
	return body, true
}

// --- write routes ---

// handleAddModel routes POST /v1/models to the owning node. The id comes
// from the ?id= override when present, else from parsing the SBML body —
// the same precedence the node applies, so the gateway and the node
// always agree on which id (and therefore which owner) a body lands on.
func (g *Gateway) handleAddModel(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		doc, err := sbml.ParseString(string(body))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parse: %v", err)
			return
		}
		id = doc.Model.ID
	}
	owner := g.parts.Owner(id)
	resp, err := g.nodes[owner].do(r.Context(), http.MethodPost, "/v1/models", r.URL.RawQuery, body, reqID(w))
	if err != nil {
		g.writeNodeError(w, owner, err)
		return
	}
	relay(w, resp)
}

func (g *Gateway) handleRemoveModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := g.parts.Owner(id)
	resp, err := g.nodes[owner].do(r.Context(), http.MethodDelete, "/v1/models/"+url.PathEscape(id), "", nil, reqID(w))
	if err != nil {
		g.writeNodeError(w, owner, err)
		return
	}
	relay(w, resp)
}

// forwardByID routes the model-addressed JSON routes (/v1/compose,
// /v1/simulate, /v1/check) to the node owning the "id" field of the
// request body; the body is forwarded verbatim.
func (g *Gateway) forwardByID(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if probe.ID == "" {
		// No node can own the empty id; answer the node's not-found shape
		// without a pointless round-trip.
		writeError(w, http.StatusNotFound, "corpus: no model %q", probe.ID)
		return
	}
	owner := g.parts.Owner(probe.ID)
	resp, err := g.nodes[owner].do(r.Context(), http.MethodPost, r.URL.Path, "", body, reqID(w))
	if err != nil {
		g.writeNodeError(w, owner, err)
		return
	}
	relay(w, resp)
}

// --- scatter-gather search ---

// nodeSearchResult is one node's answer to the fanned-out search.
type nodeSearchResult struct {
	node string
	resp *nodeResponse
	err  error
}

// handleSearch is the scatter-gather read path. Every node is asked for
// the ranking prefix [0, offset+limit) of its own partition — a page
// deeper in the merged ranking can draw all its hits from one node, so
// nothing less than the full prefix suffices — and the per-node rankings
// are merged with the exact comparator corpus.rank uses (score
// descending, model id ascending). Partitioning assigns each model to
// exactly one node, so the merge never deduplicates; the window is then
// cut from the merged ranking exactly as a single node cuts it from its
// own.
//
// Node failures degrade deterministically: by default the search is
// refused with 503 and the machine-readable "partial" code naming the
// unreachable nodes; a request with "allow_partial": true instead gets
// the merged ranking of the reachable nodes, marked Partial with the
// failed nodes listed. A complete answer carries neither field and is
// byte-identical to a single-node corpus response (modulo took_ms).
func (g *Gateway) handleSearch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.SearchRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	win, err := api.NormalizeWindow(req.TopK, req.Limit, req.Offset)
	if err != nil {
		writeError(w, http.StatusBadRequest, "search: %v", err)
		return
	}

	// Every node gets the identical [0, End) request — byte-identical
	// bodies, so repeated cluster queries hit the nodes' raw-body query
	// caches exactly like repeated single-node queries.
	nodeReq, err := json.Marshal(api.SearchRequest{
		SBML: req.SBML, TopK: win.End(), Cutoff: req.Cutoff, MinScore: req.MinScore,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode node request: %v", err)
		return
	}
	results := make([]nodeSearchResult, len(g.parts.nodes))
	var wg sync.WaitGroup
	for i, node := range g.parts.nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			resp, err := g.nodes[node].do(r.Context(), http.MethodPost, "/v1/search", "", nodeReq, reqID(w))
			results[i] = nodeSearchResult{node: node, resp: resp, err: err}
		}(i, node)
	}
	wg.Wait()

	var (
		merged     []nodeSearchBody
		failed     []string
		statuses   []nodeSearchResult
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
			var nb nodeSearchBody
			if err := json.Unmarshal(res.resp.body, &nb.resp); err != nil {
				// A node answering 200 with an undecodable body is as
				// unreachable as one not answering at all.
				failed = append(failed, res.node)
				continue
			}
			nb.node = res.node
			merged = append(merged, nb)
		}
	}

	// Non-200 node statuses: the query itself was rejected (unparseable
	// SBML → 400, uncompilable → 422, timeout → 408). Every node judges
	// the same query by the same rules, so when all answering nodes agree
	// relay the first answer verbatim; disagreement means a heterogeneous
	// fleet, reported as a gateway fault.
	if len(statuses) > 0 {
		if len(merged) == 0 && len(failed) == 0 && sameStatus > 0 {
			relay(w, statuses[0].resp)
			return
		}
		for _, res := range statuses {
			failed = append(failed, res.node)
		}
		allFailed = allFailed && len(merged) == 0
	}

	if len(failed) > 0 {
		sort.Strings(failed)
		if allFailed {
			g.degradedTotal.Inc()
			writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
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
			writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
				Error: fmt.Sprintf("shard nodes unreachable: %s; retry, or set allow_partial for an incomplete ranking", strings.Join(failed, ", ")),
				Code:  "partial",
			})
			return
		}
		g.partialServed.Inc()
	}

	hits := mergeRankings(merged, win)
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
	writeJSON(w, http.StatusOK, resp)
}

// nodeSearchBody pairs a node with its decoded search response.
type nodeSearchBody struct {
	node string
	resp api.SearchResponse
}

// mergeRankings merges per-node rankings into the global window. The
// comparator is exactly corpus.rank's: score descending, model id
// ascending — the same deterministic merge already proven identical at
// every shard and worker count inside one corpus, applied across nodes.
func mergeRankings(bodies []nodeSearchBody, win api.Window) []corpus.Hit {
	var all []corpus.Hit
	for _, b := range bodies {
		all = append(all, b.resp.Hits...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ModelID < all[j].ModelID
	})
	if win.Offset > 0 {
		if win.Offset >= len(all) {
			return []corpus.Hit{}
		}
		all = all[win.Offset:]
	}
	if win.Limit >= 0 && len(all) > win.Limit {
		all = all[:win.Limit]
	}
	if all == nil {
		all = []corpus.Hit{}
	}
	return all
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
	rows := make([]nodeHealth, len(g.parts.nodes))
	var wg sync.WaitGroup
	for i, node := range g.parts.nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			row := nodeHealth{URL: node, Status: "down"}
			resp, err := g.nodes[node].do(r.Context(), http.MethodGet, "/v1/healthz", "", nil, reqID(w))
			switch {
			case err != nil:
				row.Error = err.Error()
			case resp.status != http.StatusOK:
				row.Error = fmt.Sprintf("healthz answered %d", resp.status)
			default:
				var nh struct {
					Models int `json:"models"`
				}
				if err := json.Unmarshal(resp.body, &nh); err != nil {
					row.Error = fmt.Sprintf("healthz undecodable: %v", err)
				} else {
					row.Status = "ok"
					row.Models = nh.Models
				}
			}
			rows[i] = row
		}(i, node)
	}
	wg.Wait()
	payload := gatewayHealth{
		Status:   "ok",
		Role:     "gateway",
		Nodes:    rows,
		InFlight: g.inFlight.Load(),
		UptimeS:  time.Since(g.start).Seconds(),
	}
	for _, row := range rows {
		if row.Status != "ok" {
			payload.Status = "degraded"
			continue
		}
		payload.Models += row.Models
	}
	writeJSON(w, http.StatusOK, payload)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WriteText(w)
}
