// Package serve implements the sbmlserved HTTP server: the corpus
// subsystem (sharded storage, inverted-index top-K matching, cached
// simulation engines) exposed as a versioned JSON query service, with
// per-request stage tracing and Prometheus text exposition at GET
// /v1/metrics. It lives as a library
// rather than inside cmd/sbmlserved so the gateway tests and
// cmd/sbmlbench can run fully wired servers in-process, measuring
// exactly what production serves.
//
// The API is versioned under /v1/ with typed JSON requests and responses:
//
//	POST   /v1/models        add a model; body is SBML XML, ?id= overrides
//	                         the model id. 201 with {"id","components",
//	                         "models"}.
//	DELETE /v1/models/{id}   remove a model. 204, or 404 if absent.
//	POST   /v1/search        rank the corpus against a query model. JSON
//	                         body {"sbml","top_k","cutoff","min_score",
//	                         "offset","limit"}; returns the ranked page
//	                         with per-component evidence.
//	POST   /v1/compose       merge a query model into a stored model.
//	POST   /v1/simulate      simulate a stored model on its cached engine.
//	POST   /v1/check         evaluate a temporal-logic property over a
//	                         deterministic simulation of a stored model.
//	POST   /v1/snapshot      force a snapshot + WAL compaction.
//	GET    /v1/healthz       liveness, in-flight gauge, per-endpoint
//	                         counts with mean and p50/p95/p99 latency.
//	GET    /v1/metrics       Prometheus text exposition of every
//	                         registered series (HTTP routes, pipeline
//	                         stages, WAL/fsync, replication).
//
// Every route is served through the HTTP edge the gateway shares
// (api.Edge): request ids echoed in the X-Request-Id header and in JSON
// error bodies, per-route count and latency series, the in-flight gauge,
// the 64 MiB body cap and one access-log line per request. On top of it
// the node records a per-request stage trace into the stage histograms,
// and requests slower than the configured slow-request threshold log
// their id plus a per-stage span breakdown (decode, cache lookup, parse,
// compile, retrieval, scoring, merge, ...), so one line explains where a
// slow search went.
//
// The one unversioned route is GET /healthz, identical to GET
// /v1/healthz, for liveness probes.
//
// Request handlers run under the request context capped by
// Config.RequestTimeout; context terminations map to 408 (server-side
// deadline) or 499 (client closed request).
// /v1/search is accelerated by a raw-body query cache; see Config.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/api"
	"sbmlcompose/internal/lru"
	"sbmlcompose/internal/obs"
)

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was written. There is no standard
// status for it; 499 is what fleet dashboards already aggregate.
const statusClientClosedRequest = 499

// defaultQueryCache is the query-cache default: how many compiled search
// queries the server remembers, keyed on the raw request body.
const defaultQueryCache = 128

// defaultSlowRequest is the default slow-request log threshold.
const defaultSlowRequest = time.Second

// searchCacheMaxBody bounds which /v1/search bodies are cache-keyed; a
// giant one-off query should not evict a working set of small ones (the
// cache holds the raw body as its key).
const searchCacheMaxBody = 1 << 20

// cachedSearch is one query-cache entry: the decoded request and the
// query compiled against the corpus's match options. Rankings are always
// computed fresh against the live corpus, so an entry never goes stale
// when models are added or removed — only the parse/compile work is
// reused, never a result.
type cachedSearch struct {
	req searchRequest
	cq  *sbmlcompose.CompiledQuery
}

// Config tunes a Server. The zero value is a sensible default: fresh
// metrics registry, 128-entry query cache, 1s slow-request threshold, no
// request logging, no pprof.
type Config struct {
	// Registry receives every metric the server registers; nil creates a
	// private registry (still served at /v1/metrics). Pass the registry
	// the store metrics were created against so one scrape covers both.
	Registry *obs.Registry
	// RequestTimeout caps each handler's context; 0 leaves only the
	// client-disconnect cancellation.
	RequestTimeout time.Duration
	// QueryCache is the compiled-query cache size keyed on raw /v1/search
	// bodies: 0 means the 128-entry default, negative disables caching.
	QueryCache int
	// SlowRequest is the latency past which a request logs its id and
	// per-stage breakdown: 0 means the 1s default, negative disables.
	SlowRequest time.Duration
	// Logf, when non-nil, receives one structured line per request
	// (method, path, status, duration, request id) plus slow-request and
	// lifecycle lines. Nil keeps the server silent (tests, benchmarks).
	Logf func(format string, args ...any)
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Server routes requests to the corpus and records per-route histograms.
type Server struct {
	corpus *sbmlcompose.Corpus
	// store is the durable backing, nil when serving in-memory.
	store *sbmlcompose.CorpusStore
	// replica is non-nil when following a primary: the puller that keeps
	// the store converged. Its Status feeds /healthz and the
	// X-Replica-Lag-Seq header; POST /v1/promote stops it.
	replica *sbmlcompose.Replica
	// edge is the shared HTTP middleware; its route table also feeds
	// /v1/healthz and the shutdown stats without a registry scrape.
	edge  *api.Edge
	start time.Time
	reg   *obs.Registry
	// timeout caps each request handler's context; 0 leaves only the
	// client-disconnect cancellation of r.Context().
	timeout time.Duration
	// slowRequest is the slow-request log threshold; 0 disables.
	slowRequest time.Duration
	logf        func(format string, args ...any)
	// searchCache maps raw /v1/search bodies to their decoded request and
	// compiled query; nil disables caching. Byte-for-byte repeat searches
	// skip JSON decoding, SBML parsing and match-key derivation.
	searchCache *lru.Cache[cachedSearch]
	// searchCacheHits counts cache hits, reported by /healthz.
	searchCacheHits atomic.Int64
	// stages caches the sbmlserved_stage_seconds histogram handles so the
	// per-request middleware never goes through the registry's locked
	// getOrAdd on the hot path.
	stages stageCache
	// slowTotal and readOnlyRejected count slow requests and follower
	// write rejections for the registry.
	slowTotal        *obs.Counter
	readOnlyRejected *obs.Counter
	// closing is closed when graceful shutdown begins, waking replication
	// long-polls that would otherwise sit out their full wait_ms inside
	// the drain window.
	closing   chan struct{}
	closeOnce sync.Once
}

// New wires the routes over an in-memory corpus.
func New(c *sbmlcompose.Corpus, cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		corpus: c,
		edge: api.NewEdge("sbmlserved", cfg.Logf, func(label string) api.RouteStat {
			return api.RouteStat{
				Count: reg.Counter("sbmlserved_http_requests_total",
					"Requests served, by route.", obs.L("route", label)),
				Lat: reg.Histogram("sbmlserved_http_request_seconds",
					"Request latency in seconds, by route.", obs.LatencyBuckets(),
					obs.L("route", label)),
			}
		}),
		start:       time.Now(),
		reg:         reg,
		timeout:     cfg.RequestTimeout,
		slowRequest: cfg.SlowRequest,
		logf:        cfg.Logf,
		closing:     make(chan struct{}),
	}
	s.stages.init(reg)
	if s.slowRequest == 0 {
		s.slowRequest = defaultSlowRequest
	} else if s.slowRequest < 0 {
		s.slowRequest = 0
	}
	switch {
	case cfg.QueryCache == 0:
		s.searchCache = lru.New[cachedSearch](defaultQueryCache)
	case cfg.QueryCache > 0:
		s.searchCache = lru.New[cachedSearch](cfg.QueryCache)
	}
	s.reg.GaugeFunc("sbmlserved_in_flight_requests",
		"Requests currently executing.",
		func() float64 { return float64(s.edge.InFlight()) })
	s.reg.CounterFunc("sbmlserved_query_cache_hits_total",
		"/v1/search requests answered from the raw-body compiled-query cache.",
		func() float64 { return float64(s.searchCacheHits.Load()) })
	s.slowTotal = s.reg.Counter("sbmlserved_slow_requests_total",
		"Requests that exceeded the slow-request threshold.")
	s.readOnlyRejected = s.reg.Counter("sbmlserved_readonly_rejections_total",
		"Writes rejected because this node is an unpromoted replica.")

	s.route("POST /v1/models", "add_model", s.handleAddModel)
	s.route("DELETE /v1/models/{id}", "remove_model", s.handleRemoveModel)
	s.route("POST /v1/search", "search", s.handleSearch)
	s.route("POST /v1/compose", "compose", s.handleCompose)
	s.route("POST /v1/simulate", "simulate", s.handleSimulate)
	s.route("POST /v1/check", "check", s.handleCheck)
	s.route("POST /v1/snapshot", "snapshot", s.handleSnapshot)
	s.route("GET /v1/healthz", "healthz", s.handleHealthz)
	s.route("GET /v1/metrics", "metrics", api.MetricsHandler(s.reg))

	// Liveness probes poll the unversioned /healthz.
	s.route("GET /healthz", "healthz_legacy", s.handleHealthz)

	if cfg.Pprof {
		s.edge.Mount("GET /debug/pprof/", pprof.Index)
		s.edge.Mount("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.edge.Mount("GET /debug/pprof/profile", pprof.Profile)
		s.edge.Mount("GET /debug/pprof/symbol", pprof.Symbol)
		s.edge.Mount("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// NewPersistent wires the routes over a recovered durable store,
// including the replication surface: the WAL feed a follower pulls
// (mounted straight off the store, which implements the handlers) and
// the promotion lever.
func NewPersistent(st *sbmlcompose.CorpusStore, cfg Config) *Server {
	s := New(st.Corpus(), cfg)
	s.store = st
	s.reg.GaugeFunc("sbmlstore_wal_tail_bytes",
		"Bytes in the live WAL segment since the last snapshot.",
		func() float64 { return float64(st.Status().TailBytes) })
	s.reg.CounterFunc("sbmlstore_snapshots_total",
		"Snapshots taken since open (manual, automatic, on close).",
		func() float64 { return float64(st.Status().Snapshots) })
	s.route("GET /v1/replicate", "replicate", s.cancelOnShutdown(st.ServeReplicate))
	s.route("GET /v1/replicate/snapshot", "replicate_snapshot", st.ServeReplicateSnapshot)
	s.route("POST /v1/promote", "promote", s.handlePromote)
	return s
}

// SetReplica attaches the replication puller whose Status feeds /healthz,
// the lag headers, and the replication gauges. Call once, before serving.
func (s *Server) SetReplica(rep *sbmlcompose.Replica) {
	s.replica = rep
	s.registerReplicaGauges()
}

// registerReplicaGauges exposes the replica's staleness signals. Lag in
// records/bytes freezes while the primary is unreachable (it is
// last-contact data); the age gauges keep growing, which makes them the
// disconnection alarm.
func (s *Server) registerReplicaGauges() {
	rep := s.replica
	s.reg.GaugeFunc("sbmlrepl_lag_records",
		"Primary acknowledged records not yet applied locally (last-contact data).",
		func() float64 { return float64(rep.Status().LagRecords) })
	s.reg.GaugeFunc("sbmlrepl_lag_bytes",
		"Primary's estimate of WAL bytes not yet delivered (upper bound, last-contact data).",
		func() float64 { return float64(rep.Status().LagBytes) })
	s.reg.GaugeFunc("sbmlrepl_last_apply_age_seconds",
		"Seconds since the last applied chunk or snapshot image.",
		func() float64 { return rep.Status().SecondsSinceLastApply })
	s.reg.GaugeFunc("sbmlrepl_last_contact_age_seconds",
		"Seconds since the primary last answered.",
		func() float64 { return rep.Status().SecondsSinceLastContact })
	s.reg.GaugeFunc("sbmlrepl_connected",
		"1 when the most recent feed request succeeded, else 0.",
		func() float64 {
			if rep.Status().Connected {
				return 1
			}
			return 0
		})
	s.reg.CounterFunc("sbmlrepl_reconnects_total",
		"Contact re-established after at least one failure.",
		func() float64 { return float64(rep.Status().Reconnects) })
}

// Registry returns the server's metric registry (for wiring store or
// replica metrics created after construction into the same scrape).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store returns the durable backing, nil for an in-memory server. The
// caller owns closing it after the HTTP listener drains.
func (s *Server) Store() *sbmlcompose.CorpusStore { return s.store }

// ReplicaHandle returns the replication puller set via SetReplica, nil
// otherwise.
func (s *Server) ReplicaHandle() *sbmlcompose.Replica { return s.replica }

// route registers a handler behind the shared edge (api.Edge.Route),
// wrapped in the node's per-request stage trace.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.edge.Route(pattern, label, s.traced(h))
}

// traced runs h under a fresh stage trace, then feeds every recorded
// stage into the sbmlserved_stage_seconds histograms and, past the
// slow-request threshold, logs the request's id and stage breakdown.
func (s *Server) traced(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tr := obs.NewTrace()
		h(w, r.WithContext(obs.NewContext(r.Context(), tr)))
		d := time.Since(t0)
		for _, stage := range tr.StageDurations() {
			s.stages.get(stage.Name).Observe(stage.Duration.Seconds())
		}
		if s.slowRequest > 0 && d >= s.slowRequest {
			s.slowTotal.Inc()
			if s.logf != nil {
				bd := tr.Breakdown()
				if bd == "" {
					bd = "(no stages recorded)"
				}
				s.logf("sbmlserved: SLOW %s %s status=%d dur=%.3fms rid=%s stages: %s", r.Method, r.URL.Path, w.(*api.ResponseWriter).Status(), float64(d.Nanoseconds())/1e6, api.RequestID(w), bd)
			}
		}
	}
}

// knownStageNames enumerates every stage span the pipeline records today
// (handlers: cache_lookup/decode/parse/compile/persist; corpus:
// retrieve/score/merge/compose/simulate/check), so their histogram
// handles exist before the first request and the middleware's hot path
// is a read-only map lookup.
var knownStageNames = []string{
	"cache_lookup", "decode", "parse", "compile", "persist",
	"retrieve", "score", "merge", "compose", "simulate", "check",
}

// stageCache resolves stage names to their sbmlserved_stage_seconds
// histogram handles without going through the registry's locked getOrAdd
// per stage of every request (that per-request lock churn was the same
// code path behind the WriteText scrape race). Known stages — all of
// them, today — resolve through an immutable map built at construction:
// lock-free and allocation-free. A stage name introduced later (new
// instrumentation without this list updated) still works through the
// sync.Map slow path, registering once and then loading lock-free.
type stageCache struct {
	reg   *obs.Registry
	known map[string]*obs.Histogram
	dyn   sync.Map // string → *obs.Histogram
}

const stageHistName = "sbmlserved_stage_seconds"
const stageHistHelp = "Pipeline stage latency in seconds, by stage."

func (c *stageCache) init(reg *obs.Registry) {
	c.reg = reg
	c.known = make(map[string]*obs.Histogram, len(knownStageNames))
	for _, name := range knownStageNames {
		c.known[name] = reg.Histogram(stageHistName, stageHistHelp,
			obs.LatencyBuckets(), obs.L("stage", name))
	}
}

func (c *stageCache) get(name string) *obs.Histogram {
	if h, ok := c.known[name]; ok {
		return h
	}
	if h, ok := c.dyn.Load(name); ok {
		return h.(*obs.Histogram)
	}
	h := c.reg.Histogram(stageHistName, stageHistHelp,
		obs.LatencyBuckets(), obs.L("stage", name))
	c.dyn.Store(name, h)
	return h
}

// BeginShutdown wakes in-flight replication long-polls so the drain
// window isn't spent waiting out their wait_ms. Idempotent.
func (s *Server) BeginShutdown() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// cancelOnShutdown derives the request context so it is cancelled when
// graceful shutdown begins. A follower whose poll is cut this way sees a
// transient fetch error and re-requests from its durable seq — exactly
// the reconnect path it takes for any other dropped connection.
func (s *Server) cancelOnShutdown(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		go func() {
			select {
			case <-s.closing:
				cancel()
			case <-ctx.Done():
			}
		}()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.edge.ServeHTTP(w, r) }

// requestCtx derives the handler context: the request's own context (so a
// client disconnect cancels in-flight work) capped by the configured
// per-request deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// StatsLines renders the per-endpoint timing summary logged at shutdown:
// the same count, mean, and p50/p95/p99 numbers /v1/healthz serves.
func (s *Server) StatsLines() []string {
	var out []string
	for pattern, ep := range s.endpointReport() {
		out = append(out, fmt.Sprintf("sbmlserved: %-22s %6d requests, mean %.3f ms, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms",
			pattern, ep.Count, ep.MeanMs, ep.P50Ms, ep.P95Ms, ep.P99Ms))
	}
	// The pattern is the leading field of every line, so a lexical sort
	// orders the summary by route instead of by map iteration accident.
	sort.Strings(out)
	return out
}

// endpointReport is one route's latency summary: the request count, the
// mean (kept for compatibility with pre-histogram clients), and the
// p50/p95/p99/max read from the route's histogram.
type endpointReport struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func (s *Server) endpointReport() map[string]endpointReport {
	routes := s.edge.Routes()
	out := make(map[string]endpointReport, len(routes))
	for pattern, st := range routes {
		h := st.Lat
		out[pattern] = endpointReport{
			Count:  int64(st.Count.Value()),
			MeanMs: h.Mean() * 1e3,
			P50Ms:  h.Quantile(0.50) * 1e3,
			P95Ms:  h.Quantile(0.95) * 1e3,
			P99Ms:  h.Quantile(0.99) * 1e3,
			MaxMs:  h.Max() * 1e3,
		}
	}
	return out
}

// NewStoreMetrics registers the store durability series against reg and
// returns the struct to pass as StoreOptions.Metrics, so WAL append,
// fsync, group-commit batch sizes and snapshot durations land in the same
// scrape as the HTTP series.
func NewStoreMetrics(reg *obs.Registry) *sbmlcompose.StoreMetrics {
	return &sbmlcompose.StoreMetrics{
		AppendSeconds: reg.Histogram("sbmlstore_wal_append_seconds",
			"WAL append latency in seconds (including the fsync=always group-commit wait).",
			obs.LatencyBuckets()),
		FsyncSeconds: reg.Histogram("sbmlstore_wal_fsync_seconds",
			"Physical WAL fsync latency in seconds (all policies and paths).",
			obs.LatencyBuckets()),
		GroupBatchRecords: reg.Histogram("sbmlstore_group_batch_records",
			"Records acknowledged per successful fsync=always group commit.",
			obs.ExponentialBuckets(1, 2, 12)),
		SnapshotSeconds: reg.Histogram("sbmlstore_snapshot_seconds",
			"Snapshot + WAL compaction duration in seconds.",
			obs.LatencyBuckets()),
	}
}

// NewReplicaMetrics registers the follower-side replication series
// against reg and returns the struct to pass as ReplicaOptions.Metrics.
func NewReplicaMetrics(reg *obs.Registry) *sbmlcompose.ReplicaMetrics {
	return &sbmlcompose.ReplicaMetrics{
		FetchSeconds: reg.Histogram("sbmlrepl_fetch_seconds",
			"Feed fetch latency in seconds for chunks that shipped records.",
			obs.LatencyBuckets()),
		VerifySeconds: reg.Histogram("sbmlrepl_verify_seconds",
			"Frame verification (CRC + decode) latency per received chunk.",
			obs.LatencyBuckets()),
		ApplySeconds: reg.Histogram("sbmlrepl_apply_seconds",
			"Parse + WAL + corpus apply latency per verified chunk.",
			obs.LatencyBuckets()),
		Reconnects: reg.Counter("sbmlrepl_reconnect_events_total",
			"Contact re-established after at least one failure (event count)."),
		SnapshotResyncs: reg.Counter("sbmlrepl_snapshot_resyncs_total",
			"Bootstraps through a full snapshot image."),
	}
}
