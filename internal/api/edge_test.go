package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"sbmlcompose/internal/obs"
)

// fill is an endless body of 'x' bytes that holds none of them.
type fill struct{}

func (fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// readBody serves req through an Edge whose only route answers with the
// body ReadBody returned.
func readBody(t *testing.T, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	reg := obs.NewRegistry()
	e := NewEdge("test", nil, func(label string) RouteStat {
		return RouteStat{
			Count: reg.Counter("test_requests_total", "Requests.", obs.L("route", label)),
			Lat:   reg.Histogram("test_request_seconds", "Latency.", obs.LatencyBuckets(), obs.L("route", label)),
		}
	})
	e.Route("POST /body", "body", func(w http.ResponseWriter, r *http.Request) {
		if body, ok := ReadBody(w, r); ok {
			w.Write(body)
		}
	})
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, req)
	return rec
}

func TestReadBody(t *testing.T) {
	small := strings.Repeat("<species/>", 1000)
	big := strings.Repeat("<species/>", 300_000) // past maxBodyPresize
	for name, tc := range map[string]struct {
		body   string
		length int64
	}{
		"known length":           {small, int64(len(small))},
		"known length past cap":  {big, int64(len(big))},
		"chunked":                {small, -1},
		"chunked past cap":       {big, -1},
		"empty, declared length": {"", 0},
	} {
		req := httptest.NewRequest("POST", "/body", strings.NewReader(tc.body))
		req.ContentLength = tc.length
		rec := readBody(t, req)
		if rec.Code != http.StatusOK || rec.Body.String() != tc.body {
			t.Errorf("%s: status %d, %d bytes back for %d sent", name, rec.Code, rec.Body.Len(), len(tc.body))
		}
	}
}

// TestReadBodyOverLimit: a body past MaxBodyBytes is a 400 in the error
// envelope, with the request id the edge echoes.
func TestReadBodyOverLimit(t *testing.T) {
	req := httptest.NewRequest("POST", "/body", io.LimitReader(fill{}, MaxBodyBytes+1))
	req.ContentLength = MaxBodyBytes + 1
	req.Header.Set("X-Request-Id", "over-limit-1")
	rec := readBody(t, req)
	var er ErrorResponse
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&er); err != nil {
		t.Fatalf("status %d: body is not an error envelope: %v", rec.Code, err)
	}
	if rec.Code != http.StatusBadRequest || !strings.HasPrefix(er.Error, "read request body: ") || er.RequestID != "over-limit-1" {
		t.Fatalf("over-limit body: status %d, %+v", rec.Code, er)
	}
}

// TestReadBodyFalseLength: a request that declares 50 MiB and sends a few
// bytes costs a bounded allocation, not the declared length.
func TestReadBodyFalseLength(t *testing.T) {
	req := httptest.NewRequest("POST", "/body", bytes.NewReader([]byte("<sbml/>")))
	req.ContentLength = 50 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, ok := ReadBody(rec, req)
	runtime.ReadMemStats(&after)
	if !ok || string(body) != "<sbml/>" {
		t.Fatalf("short body: ok %v, %q", ok, body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 2<<20 {
		t.Fatalf("reading a 7-byte body declared at 50 MiB allocated %d bytes", n)
	}
}
