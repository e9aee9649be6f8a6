// Package api holds the /v1 wire types, the request-normalization rules
// and the HTTP edge shared by the node server (internal/serve) and the
// scatter-gather gateway (internal/cluster). Both ends of the cluster
// protocol speak these exact shapes: a gateway response must be
// byte-identical to a single node's response for the same corpus
// (modulo took_ms), which is only provable when the DTOs and the
// pagination normalization live in one place and are reused verbatim on
// both sides.
//
// The HTTP edge both serve through is written once here (Edge):
// request ids adopted or minted and echoed in the X-Request-Id header and
// in the "request_id" of every ErrorResponse, per-route count and latency
// series under the caller's metric names, one access-log line per
// request, the in-flight gauge, the 64 MiB body cap, body reading, the
// metrics handler, and Backoff, the retry pacing of the gateway's node
// client and the replication puller. The store's replication feed
// answers errors in the same envelope.
package api

import (
	"fmt"

	"sbmlcompose/internal/corpus"
)

// ErrorResponse is the uniform JSON error body every /v1 route answers
// failures with. Code is machine-readable and set for conditions a
// client should dispatch on ("deadline_exceeded", "client_closed_request",
// "read_only", "partial", "node_unreachable"); other errors carry only
// the message. RequestID echoes the X-Request-Id header so one string
// ties the failure a client saw to the server's log line for it.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	SBML     string  `json:"sbml"`
	TopK     int     `json:"top_k"`
	Cutoff   float64 `json:"cutoff"`
	MinScore float64 `json:"min_score"`
	// Offset/Limit paginate the ranking: the response holds hits
	// [Offset, Offset+Limit) of the full ranking. Limit and the older
	// TopK field are interchangeable names for the same window size;
	// setting both to different values is a 400 (see NormalizeWindow).
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// AllowPartial opts a gateway search into partial results: when a
	// shard node is unreachable the gateway answers 200 with the merged
	// ranking of the reachable nodes and Partial set, instead of the
	// default 503 "partial" error. Single nodes ignore it.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// SearchResponse is the POST /v1/search response.
type SearchResponse struct {
	// Hits is normalized to non-nil on both node and gateway paths, so an
	// empty result serializes as "hits":[] everywhere — omitting it on
	// some paths is exactly the byte-identity bug the pins guard against.
	//sbml:alwayspresent nil is normalized to [] on node and gateway; "hits":[] is part of the wire contract
	Hits []corpus.Hit `json:"hits"`
	// Offset and Limit echo the normalized pagination window (Limit -1
	// reports an unbounded window); Returned is len(Hits) for clients
	// paging until a short page.
	Offset   int     `json:"offset"`
	Limit    int     `json:"limit"`
	Returned int     `json:"returned"`
	TookMs   float64 `json:"took_ms"`
	// Partial and FailedNodes are set only by a gateway answering with
	// an incomplete node set under AllowPartial: the ranking covers every
	// model except those owned by the listed nodes. A complete answer
	// omits both, so it is byte-identical to a single node's.
	Partial     bool     `json:"partial,omitempty"`
	FailedNodes []string `json:"failed_nodes,omitempty"`
}

// Window is a normalized pagination window over the global ranking:
// hits [Offset, Offset+Limit), with Limit -1 meaning unbounded.
type Window struct {
	Offset int
	// Limit is the page size: always either positive or exactly -1
	// (unbounded) after NormalizeWindow.
	Limit int
}

// End returns the exclusive upper bound of the window, or -1 when the
// window is unbounded — the [0, End) prefix a gateway must fetch from
// every node for pages to tile across partitions.
func (w Window) End() int {
	if w.Limit < 0 {
		return -1
	}
	return w.Offset + w.Limit
}

// NormalizeWindow resolves the raw top_k/limit/offset fields of a search
// request into the one effective window used for both the corpus call
// and the response echo. The rules, applied identically by nodes and
// gateways (pages cannot tile across partitions otherwise):
//
//   - limit and top_k name the same thing; 0 means unset. If both are
//     set they must agree (after canonicalization), else an error — the
//     old behavior of silently preferring limit hid client bugs.
//   - any negative value means unbounded and canonicalizes to -1, so
//     the echo is the sentinel -1, never a raw negative like -7.
//   - neither set defaults to 5, applied here once — the echo can never
//     disagree with what the corpus was actually asked for.
//   - a negative offset is treated as 0 (the corpus contract).
func NormalizeWindow(topK, limit, offset int) (Window, error) {
	canon := func(v int) int {
		if v < 0 {
			return -1
		}
		return v
	}
	topK, limit = canon(topK), canon(limit)
	if topK != 0 && limit != 0 && topK != limit {
		return Window{}, fmt.Errorf("limit (%d) and top_k (%d) disagree; set one, or both to the same value", limit, topK)
	}
	eff := limit
	if eff == 0 {
		eff = topK
	}
	if eff == 0 {
		eff = 5
	}
	if offset < 0 {
		offset = 0
	}
	return Window{Offset: offset, Limit: eff}, nil
}

// ValidRequestID reports whether an inbound X-Request-Id value is safe
// to adopt: 1..128 characters drawn from a printable-safe charset
// (letters, digits, '-', '_', '.', ':'). Anything else — control bytes,
// spaces, quotes, high bytes — is replaced with a generated id rather
// than echoed into logs and JSON error bodies.
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}
