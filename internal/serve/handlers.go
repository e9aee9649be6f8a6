package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/api"
	"sbmlcompose/internal/obs"
)

// --- response helpers ---

// writeCtxError reports a context termination: 408 when the server-side
// deadline expired, 499 when the client went away (the write is then
// best-effort, but the status still lands in the endpoint stats).
// Returns false if err is not a context termination.
func writeCtxError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		api.WriteJSON(w, http.StatusRequestTimeout, api.ErrorResponse{
			Error: "request timed out server-side: " + err.Error(),
			Code:  "deadline_exceeded",
		})
		return true
	case errors.Is(err, context.Canceled):
		api.WriteJSON(w, statusClientClosedRequest, api.ErrorResponse{
			Error: "client closed request: " + err.Error(),
			Code:  "client_closed_request",
		})
		return true
	}
	return false
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	sp := obs.FromContext(r.Context()).Start("decode")
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// modelError reports corpus "no model" errors as 404, context
// terminations as 408/499, and everything else as 422 (the model exists
// but the operation failed on it).
func modelError(w http.ResponseWriter, err error) {
	if errors.Is(err, sbmlcompose.ErrModelNotFound) {
		api.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if writeCtxError(w, err) {
		return
	}
	api.WriteError(w, http.StatusUnprocessableEntity, "%v", err)
}

// --- typed request/response DTOs ---

type addModelResponse struct {
	ID         string `json:"id"`
	Components int    `json:"components"`
	Models     int    `json:"models"`
}

// searchRequest/searchResponse are the /v1/search wire shapes, shared
// with the cluster gateway through internal/api: the gateway both
// normalizes the window with the same rules (pages must tile across
// partitions) and answers the same response shape (a complete gateway
// answer is byte-identical to a single node's, modulo took_ms).
type (
	searchRequest  = api.SearchRequest
	searchResponse = api.SearchResponse
)

type composeRequest struct {
	ID   string `json:"id"`
	SBML string `json:"sbml"`
}

type composeStats struct {
	Merged    int `json:"merged"`
	Added     int `json:"added"`
	Renamed   int `json:"renamed"`
	Conflicts int `json:"conflicts"`
}

type composeResponse struct {
	SBML     string       `json:"sbml"`
	Warnings []string     `json:"warnings,omitempty"`
	Stats    composeStats `json:"stats"`
}

type simulateRequest struct {
	ID        string  `json:"id"`
	Method    string  `json:"method"` // "ode" (default) or "ssa"
	T0        float64 `json:"t0"`
	T1        float64 `json:"t1"`
	Step      float64 `json:"step"`
	Seed      int64   `json:"seed"`
	Adaptive  bool    `json:"adaptive"`
	Tolerance float64 `json:"tolerance"`
}

type simulateResponse struct {
	// All three series are populated from the trace on every 200: a
	// simulation always has at least its initial time point.
	//sbml:alwayspresent filled from the trace on every success; never empty on a 200
	Names []string `json:"names"`
	//sbml:alwayspresent filled from the trace on every success; never empty on a 200
	Times []float64 `json:"times"`
	//sbml:alwayspresent filled from the trace on every success; never empty on a 200
	Values [][]float64 `json:"values"`
}

type checkRequest struct {
	ID      string  `json:"id"`
	Formula string  `json:"formula"`
	T0      float64 `json:"t0"`
	T1      float64 `json:"t1"`
	Step    float64 `json:"step"`
}

type checkResponse struct {
	//sbml:alwayspresent false is the verdict, not absence; clients key on the field existing
	Satisfied bool `json:"satisfied"`
}

type snapshotResponse struct {
	Status string                  `json:"status"`
	Store  sbmlcompose.StoreStatus `json:"store"`
}

type promoteResponse struct {
	Status         string `json:"status"`
	Role           string `json:"role"`
	LastAppliedSeq uint64 `json:"last_applied_seq"`
	Epoch          uint64 `json:"epoch,omitempty"`
	// Warning reports a promotion that succeeded but could not durably
	// record its epoch bump (the stale-primary guard is weakened until
	// the disk heals).
	Warning string `json:"warning,omitempty"`
}

type healthzResponse struct {
	Status   string  `json:"status"`
	Models   int     `json:"models"`
	InFlight int64   `json:"in_flight"`
	UptimeS  float64 `json:"uptime_s"`
	//sbml:alwayspresent always make()'d by the stats snapshot, even with zero routes hit
	Endpoints map[string]endpointReport `json:"endpoints"`
	// QueryCacheHits counts /v1/search requests answered from the raw-body
	// compiled-query cache.
	QueryCacheHits int64                    `json:"query_cache_hits"`
	Store          *sbmlcompose.StoreStatus `json:"store,omitempty"`
	// Replication health, reported on every role: a plain primary (or an
	// in-memory server) shows role "primary" with zero lag; a follower
	// shows its applied position, lag behind the primary's acknowledged
	// watermark in records and bytes, staleness ages in seconds, and the
	// reconnect count, with the full replica detail nested. The lag
	// fields freeze at their last-contact values while the primary is
	// unreachable; the age fields keep growing — they are the
	// disconnection alarm.
	Role                  string                     `json:"role"`
	LastAppliedSeq        uint64                     `json:"last_applied_seq"`
	ReplicationLagRecords uint64                     `json:"replication_lag_records"`
	ReplicationLagBytes   uint64                     `json:"replication_lag_bytes"`
	SecondsSinceLastApply float64                    `json:"seconds_since_last_apply,omitempty"`
	Reconnects            uint64                     `json:"reconnects"`
	Replica               *sbmlcompose.ReplicaStatus `json:"replica,omitempty"`
}

// --- handlers ---

func (s *Server) handleAddModel(w http.ResponseWriter, r *http.Request) {
	if s.followerMode() {
		s.writeReadOnlyError(w)
		return
	}
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	sp := obs.FromContext(r.Context()).Start("parse")
	m, err := sbmlcompose.ParseModelString(string(body))
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		m.ID = id
	}
	sp = obs.FromContext(r.Context()).Start("persist")
	id, err := s.corpus.Add(m)
	sp.End()
	if err != nil {
		if errors.Is(err, sbmlcompose.ErrReplicaReadOnly) {
			s.writeReadOnlyError(w)
			return
		}
		status := persistStatus(err)
		if errors.Is(err, sbmlcompose.ErrDuplicateModel) {
			status = http.StatusConflict
		}
		api.WriteError(w, status, "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusCreated, addModelResponse{
		ID:         id,
		Components: m.ComponentCount(),
		Models:     s.corpus.Len(),
	})
}

func (s *Server) handleRemoveModel(w http.ResponseWriter, r *http.Request) {
	if s.followerMode() {
		s.writeReadOnlyError(w)
		return
	}
	id := r.PathValue("id")
	sp := obs.FromContext(r.Context()).Start("persist")
	ok, err := s.corpus.Remove(id)
	sp.End()
	if err != nil {
		if errors.Is(err, sbmlcompose.ErrReplicaReadOnly) {
			s.writeReadOnlyError(w)
			return
		}
		api.WriteError(w, persistStatus(err), "%v", err)
		return
	}
	if !ok {
		api.WriteError(w, http.StatusNotFound, "corpus: no model %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// persistStatus maps a mutation error to a status: durable-store failures
// are server faults (500), everything else is a request fault (422).
func persistStatus(err error) int {
	if errors.Is(err, sbmlcompose.ErrPersistFailed) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// followerMode reports whether this server is currently an unpromoted
// replica. Mutation handlers check it before doing any work, so a
// follower answers every write — even one that would fail validation —
// with the same 403, leaking nothing about its (possibly stale) state.
// The store-level ErrReadOnly mapping in the handlers stays as the
// backstop for races with promotion.
func (s *Server) followerMode() bool {
	return s.replica != nil && s.replica.Status().Role == "follower"
}

// writeReadOnlyError answers a mutation attempted on a follower: 403 with
// the machine-readable "read_only" code, so clients can distinguish the
// graceful-degradation rejection from a real authorization failure and
// retry against the primary (or after promotion). Each rejection counts
// toward sbmlserved_readonly_rejections_total.
func (s *Server) writeReadOnlyError(w http.ResponseWriter) {
	s.readOnlyRejected.Inc()
	api.WriteJSON(w, http.StatusForbidden, api.ErrorResponse{
		Error: "this node is a read-only replica; send writes to the primary or promote this node",
		Code:  "read_only",
	})
}

// setLagHeader stamps follower read responses with the replication lag in
// sequence numbers (X-Replica-Lag-Seq), the staleness bound for the data
// about to be served. Primaries and in-memory servers add nothing.
func (s *Server) setLagHeader(w http.ResponseWriter) {
	if s.replica == nil {
		return
	}
	st := s.replica.Status()
	if st.Role != "follower" {
		return
	}
	w.Header().Set("X-Replica-Lag-Seq", fmt.Sprintf("%d", st.LagRecords))
}

// handlePromote stops replication and lifts the read-only gate — the
// failover lever. Idempotent: promoting an already promoted node answers
// 200 again; a server that never was a replica answers 409.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.replica == nil {
		api.WriteError(w, http.StatusConflict, "this server is not a replica; nothing to promote")
		return
	}
	perr := s.replica.Promote()
	st := s.replica.Status()
	if s.logf != nil {
		s.logf("sbmlserved: promoted to primary at seq %d, epoch %d (was following %s)", st.LastAppliedSeq, st.Epoch, st.PrimaryURL)
	}
	resp := promoteResponse{
		Status:         "ok",
		Role:           st.Role,
		LastAppliedSeq: st.LastAppliedSeq,
		Epoch:          st.Epoch,
	}
	if perr != nil {
		// The node is promoted and serving; only the epoch bump's
		// persistence failed. Surface it rather than failing the failover.
		resp.Warning = perr.Error()
		if s.logf != nil {
			s.logf("sbmlserved: promote: %v", perr)
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.setLagHeader(w)
	body, ok := api.ReadBody(w, r)
	if !ok {
		return
	}
	req, cq, ok := s.searchQuery(r.Context(), w, body)
	if !ok {
		return
	}
	// Normalize the pagination window exactly once, after the (possibly
	// cached) decode: the same Window drives the corpus call and the
	// response echo, so the two can never disagree, and the cluster
	// gateway applies the identical function so its pages tile across
	// partitions. Disagreeing limit/top_k is a client bug, reported as
	// one rather than silently resolved.
	win, err := api.NormalizeWindow(req.TopK, req.Limit, req.Offset)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "search: %v", err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	t0 := time.Now()
	hits, err := s.corpus.SearchCompiled(ctx, cq, sbmlcompose.SearchOptions{
		TopK: win.Limit, Offset: win.Offset, Cutoff: req.Cutoff, MinScore: req.MinScore,
	})
	if err != nil {
		if writeCtxError(w, err) {
			return
		}
		api.WriteError(w, http.StatusUnprocessableEntity, "search: %v", err)
		return
	}
	if hits == nil {
		hits = []sbmlcompose.Hit{}
	}
	api.WriteJSON(w, http.StatusOK, searchResponse{
		Hits:     hits,
		Offset:   win.Offset,
		Limit:    win.Limit,
		Returned: len(hits),
		TookMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	})
}

// searchQuery resolves a raw /v1/search body to its decoded request and
// compiled query, through the raw-body cache when one is configured. On
// a hit the body is never JSON-decoded, the SBML never parsed, the match
// keys never rederived; rankings still run fresh per request, so cached
// and uncached responses are identical. Only fully successful
// decode+parse+compile chains are cached — a body that produced a 4xx
// re-earns its error every time — and oversized bodies bypass the cache
// rather than evict a working set. On failure the response has been
// written and ok is false. Each step records a stage span (cache_lookup,
// decode, parse, compile) into the request trace.
func (s *Server) searchQuery(ctx context.Context, w http.ResponseWriter, body []byte) (req searchRequest, cq *sbmlcompose.CompiledQuery, ok bool) {
	tr := obs.FromContext(ctx)
	cacheable := s.searchCache != nil && len(body) <= searchCacheMaxBody
	if cacheable {
		sp := tr.Start("cache_lookup")
		hit, found := s.searchCache.Get(string(body))
		sp.End()
		if found {
			s.searchCacheHits.Add(1)
			return hit.req, hit.cq, true
		}
	}
	sp := tr.Start("decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, nil, false
	}
	sp = tr.Start("parse")
	query, err := sbmlcompose.ParseModelString(req.SBML)
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "parse query: %v", err)
		return req, nil, false
	}
	sp = tr.Start("compile")
	cq, err = s.corpus.CompileQuery(query)
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusUnprocessableEntity, "search: %v", err)
		return req, nil, false
	}
	if cacheable {
		s.searchCache.Put(string(body), cachedSearch{req: req, cq: cq})
	}
	return req, cq, true
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	s.setLagHeader(w)
	var req composeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sp := obs.FromContext(r.Context()).Start("parse")
	query, err := sbmlcompose.ParseModelString(req.SBML)
	sp.End()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "parse query: %v", err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.corpus.ComposeWith(ctx, req.ID, query)
	if err != nil {
		modelError(w, err)
		return
	}
	warnings := make([]string, len(res.Warnings))
	for i, warn := range res.Warnings {
		warnings[i] = warn.String()
	}
	api.WriteJSON(w, http.StatusOK, composeResponse{
		SBML:     sbmlcompose.ModelToString(res.Model),
		Warnings: warnings,
		Stats: composeStats{
			Merged:    res.Stats.Merged,
			Added:     res.Stats.Added,
			Renamed:   res.Stats.Renamed,
			Conflicts: res.Stats.Conflicts,
		},
	})
}

func (r simulateRequest) simOptions() sbmlcompose.SimOptions {
	return sbmlcompose.SimOptions{
		T0: r.T0, T1: r.T1, Step: r.Step, Seed: r.Seed,
		Adaptive: r.Adaptive, Tolerance: r.Tolerance,
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.setLagHeader(w)
	var req simulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var (
		tr  *sbmlcompose.Trace
		err error
	)
	switch req.Method {
	case "", "ode":
		tr, err = s.corpus.SimulateODEContext(ctx, req.ID, req.simOptions())
	case "ssa":
		tr, err = s.corpus.SimulateSSAContext(ctx, req.ID, req.simOptions())
	default:
		api.WriteError(w, http.StatusBadRequest, "method must be \"ode\" or \"ssa\"")
		return
	}
	if err != nil {
		modelError(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, simulateResponse{
		Names:  tr.Names,
		Times:  tr.Times,
		Values: tr.Values,
	})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.setLagHeader(w)
	var req checkRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	sat, err := s.corpus.CheckPropertyContext(ctx, req.ID, req.Formula, sbmlcompose.SimOptions{
		T0: req.T0, T1: req.T1, Step: req.Step,
	})
	if err != nil {
		modelError(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, checkResponse{Satisfied: sat})
}

// handleSnapshot forces a snapshot + WAL compaction: the admin lever for
// bounding recovery time before a planned restart. Failures are server
// faults (500) carrying the store error detail. The snapshot honors the
// request context too — an impatient admin's Ctrl-C abandons the dump
// between models rather than writing a snapshot nobody waits for.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		api.WriteError(w, http.StatusConflict, "server is running without -data; nothing to snapshot")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if err := s.store.SnapshotContext(ctx); err != nil {
		if writeCtxError(w, err) {
			return
		}
		api.WriteError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	api.WriteJSON(w, http.StatusOK, snapshotResponse{Status: "ok", Store: s.store.Status()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	payload := healthzResponse{
		Status:         "ok",
		Models:         s.corpus.Len(),
		InFlight:       s.edge.InFlight(),
		UptimeS:        time.Since(s.start).Seconds(),
		Endpoints:      s.endpointReport(),
		QueryCacheHits: s.searchCacheHits.Load(),
		Role:           "primary",
	}
	if s.store != nil {
		st := s.store.Status()
		payload.Store = &st
		payload.LastAppliedSeq = st.LastSeq
	}
	if s.replica != nil {
		rs := s.replica.Status()
		payload.Role = rs.Role
		payload.LastAppliedSeq = rs.LastAppliedSeq
		payload.ReplicationLagRecords = rs.LagRecords
		payload.ReplicationLagBytes = rs.LagBytes
		payload.SecondsSinceLastApply = rs.SecondsSinceLastApply
		payload.Reconnects = rs.Reconnects
		payload.Replica = &rs
	}
	api.WriteJSON(w, http.StatusOK, payload)
}
