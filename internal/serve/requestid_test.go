package serve

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// generatedRID is the shape of a server-minted request id: the 10-hex-char
// crypto/rand prefix, a dash, a sequence number.
var generatedRID = regexp.MustCompile(`^[0-9a-f]{10}-[0-9]+$`)

// TestRequestIDPrefixIsRandom pins the collision fix: the prefix comes
// from crypto/rand, not truncated wall-clock nanos, so servers started
// back-to-back — the normal case when a cluster boots — mint from
// disjoint id spaces. Equal 40-bit random prefixes across two servers
// have probability 2^-40; a flake here means the generator is broken.
func TestRequestIDPrefixIsRandom(t *testing.T) {
	a, b := testServer(), testServer()
	if !generatedRID.MatchString(a.edge.RIDPrefix() + "-1") {
		t.Fatalf("prefix %q is not 10 lowercase hex chars", a.edge.RIDPrefix())
	}
	if a.edge.RIDPrefix() == b.edge.RIDPrefix() {
		t.Fatalf("two servers minted the same request-id prefix %q", a.edge.RIDPrefix())
	}
}

// TestRequestIDInboundHygiene pins which inbound X-Request-Id values are
// adopted: printable-safe, bounded ids echo back verbatim; anything with
// control bytes, spaces, quotes or over-length is replaced with a
// generated id instead of being reflected into logs and JSON bodies.
func TestRequestIDInboundHygiene(t *testing.T) {
	s := testServer()
	send := func(rid string) string {
		req := httptest.NewRequest("GET", "/v1/healthz", nil)
		if rid != "" {
			req.Header.Set("X-Request-Id", rid)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz with rid %q: %d", rid, rec.Code)
		}
		return rec.Header().Get("X-Request-Id")
	}

	for _, ok := range []string{"ci-smoke-1", "gw.node:42", "A-B_c.d:e", strings.Repeat("k", 128)} {
		if got := send(ok); got != ok {
			t.Errorf("valid inbound id %q came back as %q", ok, got)
		}
	}
	for _, bad := range []string{
		"has space",
		"ctrl\x01byte",
		"newline\nsplit",
		`quo"te`,
		"brace{",
		strings.Repeat("k", 129),
	} {
		got := send(bad)
		if got == bad {
			t.Errorf("unsafe inbound id %q was adopted verbatim", bad)
		}
		if !generatedRID.MatchString(got) {
			t.Errorf("replacement for %q is %q, not a generated id", bad, got)
		}
	}
	// No inbound id at all also gets a generated one.
	if got := send(""); !generatedRID.MatchString(got) {
		t.Errorf("missing inbound id produced %q", got)
	}
}

// TestRequestIDEchoedInErrorBody pins that a rejected unsafe id is also
// replaced in the JSON error body, not just the header — on the /v1
// handlers and on the replication feed the store serves.
func TestRequestIDEchoedInErrorBody(t *testing.T) {
	// A closed store makes the snapshot route fail with a 500; the
	// replicate route rejects its from parameter before touching it.
	st := openTestStore(t, t.TempDir())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	persistent := NewPersistent(st, Config{})
	for _, tc := range []struct {
		s            *Server
		method, path string
		body         string
		want         int
	}{
		{testServer(), "POST", "/v1/search", "{bad json", http.StatusBadRequest},
		{persistent, "GET", "/v1/replicate?from=abc", "", http.StatusBadRequest},
		{persistent, "GET", "/v1/replicate/snapshot", "", http.StatusInternalServerError},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		req.Header.Set("X-Request-Id", "evil\x00\"id")
		rec := httptest.NewRecorder()
		tc.s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("%s %s: %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		body := rec.Body.String()
		if strings.Contains(body, "evil") {
			t.Fatalf("%s: error body reflected the unsafe inbound id: %s", tc.path, body)
		}
		if !strings.Contains(body, `"request_id":"`+rec.Header().Get("X-Request-Id")+`"`) {
			t.Fatalf("%s: error body lost the request id echo: %s", tc.path, body)
		}
	}
}
