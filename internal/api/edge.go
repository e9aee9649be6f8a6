package api

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sbmlcompose/internal/obs"
)

// MaxBodyBytes caps request bodies (models can legitimately be large).
const MaxBodyBytes = 64 << 20

// RouteStat is one route's metric pair. The caller registers both series
// under its own constant metric names (see NewEdge), so the names stay
// visible to sbmlvet's obshygiene check.
type RouteStat struct {
	Count *obs.Counter
	Lat   *obs.Histogram
}

// Edge is the HTTP middleware a node and a gateway both serve through:
// request ids, per-route count and latency, the in-flight gauge, the body
// cap and one access-log line per request. Routes are registered before
// serving; the route table is read-only afterwards.
type Edge struct {
	mux *http.ServeMux
	// name prefixes every access-log line ("sbmlserved", "sbmlgw").
	name    string
	logf    func(format string, args ...any)
	newStat func(label string) RouteStat
	routes  map[string]RouteStat // route pattern → metrics
	// ridPrefix + ridSeq mint ids for requests that arrive without a
	// safe X-Request-Id.
	ridPrefix string
	ridSeq    atomic.Uint64
	inFlight  atomic.Int64
}

// NewEdge builds an empty edge. name prefixes its log lines, logf (nil
// for silence) receives them, and newStat registers the metric pair of
// each route label as it is added.
func NewEdge(name string, logf func(format string, args ...any), newStat func(label string) RouteStat) *Edge {
	return &Edge{
		mux:       http.NewServeMux(),
		name:      name,
		logf:      logf,
		newStat:   newStat,
		routes:    map[string]RouteStat{},
		ridPrefix: newRIDPrefix(),
	}
}

// newRIDPrefix mints the per-process request-id prefix from crypto/rand:
// 40 random bits, so two servers started in the same instant — the
// normal case when a cluster boots — cannot mint colliding ids.
// Cross-node request correlation through the gateway depends on ids
// being unique fleet-wide.
func newRIDPrefix() string {
	var b [5]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Only reachable when the system's randomness is broken; a
		// time-derived prefix is strictly better than no server identity.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// RIDPrefix returns the prefix of the request ids this edge mints.
func (e *Edge) RIDPrefix() string { return e.ridPrefix }

// requestID returns the inbound X-Request-Id when the client sent a safe
// one (ValidRequestID), else a fresh "<prefix>-<seq>" id. Arbitrary
// inbound bytes are never adopted: the id is echoed into response
// headers, JSON error bodies and log lines.
func (e *Edge) requestID(r *http.Request) string {
	if rid := r.Header.Get("X-Request-Id"); ValidRequestID(rid) {
		return rid
	}
	return e.ridPrefix + "-" + strconv.FormatUint(e.ridSeq.Add(1), 10)
}

// Route registers h under pattern behind the middleware: it assigns the
// request id (X-Request-Id header, and the "request_id" of error bodies
// written through WriteJSON), counts and times the request under label,
// and logs one line per request.
func (e *Edge) Route(pattern, label string, h http.HandlerFunc) {
	st := e.newStat(label)
	e.routes[pattern] = st
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := e.requestID(r)
		rw := &ResponseWriter{ResponseWriter: w, reqID: rid, status: http.StatusOK}
		rw.Header().Set("X-Request-Id", rid)
		h(rw, r)
		d := time.Since(t0)
		st.Count.Inc()
		st.Lat.Observe(d.Seconds())
		if e.logf != nil {
			e.logf("%s: %s %s status=%d dur=%.3fms rid=%s", e.name, r.Method, r.URL.Path, rw.status, float64(d.Nanoseconds())/1e6, rid)
		}
	})
}

// Mount registers h under pattern without the middleware (pprof).
func (e *Edge) Mount(pattern string, h http.HandlerFunc) { e.mux.HandleFunc(pattern, h) }

// Routes returns the metric pair of every route, by pattern. The map is
// the edge's own and must not be modified.
func (e *Edge) Routes() map[string]RouteStat { return e.routes }

// InFlight reports the requests currently executing.
func (e *Edge) InFlight() int64 { return e.inFlight.Load() }

func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	e.mux.ServeHTTP(w, r)
}

// ResponseWriter captures the response status and carries the request id
// so error bodies can echo it without threading it through every handler.
type ResponseWriter struct {
	http.ResponseWriter
	reqID  string
	status int
}

func (w *ResponseWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *ResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the status written so far (200 until WriteHeader).
func (w *ResponseWriter) Status() int { return w.status }

// RequestID returns the request id the edge assigned to the request w
// answers, or "" when w did not come from an Edge.
func RequestID(w http.ResponseWriter) string {
	if rw, ok := w.(*ResponseWriter); ok {
		return rw.reqID
	}
	return ""
}

// WriteJSON writes v as the JSON response body with status. An
// ErrorResponse without a RequestID gets the edge's request id, so
// handlers never thread it explicitly.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	if er, isErr := v.(ErrorResponse); isErr && er.RequestID == "" {
		er.RequestID = RequestID(w)
		v = er
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes an ErrorResponse with the formatted message.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyPresize caps the buffer ReadBody allocates on a request's
// declared Content-Length before any byte arrives, so a false header
// cannot make the server allocate what it never receives.
const maxBodyPresize = 1 << 20

// ReadBody drains the (size-capped) request body, reporting over-limit
// and transport failures as a 400. On failure the response has been
// written and the bool is false. The buffer is presized from the
// declared Content-Length, up to maxBodyPresize, so a body of declared
// length is read without regrowing; MinRead spare bytes let the read
// see the end of the body without growing the buffer.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var size int64
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyPresize) + bytes.MinRead
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(r.Body); err != nil {
		WriteError(w, http.StatusBadRequest, "read request body: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// MetricsHandler serves the Prometheus text exposition of every series
// in reg.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	}
}

// Backoff paces the retries of the two /v1 clients, the gateway's node
// client and the replication puller: capped exponential backoff with
// jitter, so a fleet of clients that lost the same server does not
// retry in lockstep. A new or Reset Backoff first waits about Min.
type Backoff struct {
	Min, Max time.Duration
	cur      time.Duration
}

// Wait sleeps a uniformly random duration in [b/2, b], where b is the
// current backoff (Min at first), then doubles b up to Max. It returns
// ctx.Err() as soon as ctx ends.
func (b *Backoff) Wait(ctx context.Context) error {
	backoff := max(b.cur, b.Min)
	d := backoff/2 + rand.N(backoff/2+1)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
	}
	b.cur = min(backoff*2, b.Max)
	return nil
}

// Reset starts the next Wait from Min again.
func (b *Backoff) Reset() { b.cur = 0 }
