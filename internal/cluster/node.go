package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"sbmlcompose/internal/api"
	"sbmlcompose/internal/obs"
)

// nodeClient issues requests to one shard node with a per-request
// timeout and capped exponential backoff with jitter between transport
// failures — api.Backoff, the pacing the replication puller in
// store/replica.go uses too, for the same reason: a node restart or a
// dropped connection should cost one jittered retry, not a failed user
// request, while an HTTP status from the node is its answer and is never
// retried (retrying a 409 duplicate-add would not make it less
// duplicate).
type nodeClient struct {
	base string
	hc   *http.Client
	// timeout caps each attempt; attempts bounds the transport retries,
	// paced by a copy of backoff per request.
	timeout  time.Duration
	attempts int
	backoff  api.Backoff
	// Per-node fan-out series: every request, every transport failure,
	// and the latency of successful round-trips.
	requests *obs.Counter
	errors   *obs.Counter
	lat      *obs.Histogram
}

// nodeResponse is one completed node round-trip.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
}

// do performs method path?rawQuery against the node, propagating the
// gateway's request id, retrying transport-level failures (connection
// refused, resets, timeouts) with jittered backoff up to the attempt
// budget. The request context bounds the whole exchange: a cancelled
// inbound request stops retrying immediately.
func (n *nodeClient) do(ctx context.Context, method, path, rawQuery string, body []byte, reqID string) (*nodeResponse, error) {
	backoff := n.backoff
	var lastErr error
	for attempt := 0; attempt < n.attempts; attempt++ {
		if attempt > 0 {
			if err := backoff.Wait(ctx); err != nil {
				return nil, err
			}
		}
		resp, err := n.once(ctx, method, path, rawQuery, body, reqID)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("cluster: node %s: %w", n.base, lastErr)
}

func (n *nodeClient) once(ctx context.Context, method, path, rawQuery string, body []byte, reqID string) (*nodeResponse, error) {
	n.requests.Inc()
	t0 := time.Now()
	rctx, cancel := context.WithTimeout(ctx, n.timeout)
	defer cancel()
	url := n.base + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		n.errors.Inc()
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		n.errors.Inc()
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		n.errors.Inc()
		return nil, fmt.Errorf("read response: %w", err)
	}
	n.lat.Observe(time.Since(t0).Seconds())
	return &nodeResponse{status: resp.StatusCode, header: resp.Header, body: b}, nil
}
