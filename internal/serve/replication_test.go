package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sbmlcompose"
)

// End-to-end replication through the HTTP surface: a primary server
// feeds a follower server; the follower serves reads with a lag header,
// answers 403 read_only to mutations, reports its role and lag on
// /healthz, and becomes a writable primary through POST /v1/promote.

func waitForSeq(t *testing.T, st *sbmlcompose.CorpusStore, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st.LastSeq() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower stuck at seq %d, want %d", st.LastSeq(), want)
}

func TestReplicationFollowerServer(t *testing.T) {
	// Primary: a persistent server with a few models, exposed over a real
	// listener for the follower to pull from.
	primaryStore := openTestStore(t, t.TempDir())
	defer primaryStore.Close()
	primary := NewPersistent(primaryStore, Config{})
	for i := 0; i < 4; i++ {
		xml := modelXML(string(rune('a'+i))+"_rep", int64(900+i))
		if rec, _ := do(t, primary, "POST", "/v1/models", xml); rec.Code != http.StatusCreated {
			t.Fatalf("seed POST #%d: %d", i, rec.Code)
		}
	}
	ts := httptest.NewServer(primary)
	defer ts.Close()

	// Follower: replicates the seeded corpus.
	followerStore := openTestStore(t, t.TempDir())
	defer followerStore.Close()
	rep, err := sbmlcompose.StartReplica(followerStore, sbmlcompose.ReplicaOptions{
		PrimaryURL: ts.URL,
		PollWait:   200 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	follower := NewPersistent(followerStore, Config{})
	follower.replica = rep
	waitForSeq(t, followerStore, primaryStore.LastSeq())

	// Mutations are refused with a machine-readable 403.
	rec, body := do(t, follower, "POST", "/v1/models", modelXML("z_rep", 999))
	if rec.Code != http.StatusForbidden || body["code"] != "read_only" {
		t.Fatalf("follower POST /v1/models: %d %v, want 403 read_only", rec.Code, body)
	}
	rec, body = do(t, follower, "DELETE", "/v1/models/a_rep", "")
	if rec.Code != http.StatusForbidden || body["code"] != "read_only" {
		t.Fatalf("follower DELETE: %d %v, want 403 read_only", rec.Code, body)
	}

	// Reads answer, stamped with the staleness bound.
	searchBody := jsonBody(t, map[string]any{"sbml": modelXML("a_rep", 900), "top_k": 5})
	rec, _ = do(t, follower, "POST", "/v1/search", searchBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("follower search: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Replica-Lag-Seq"); got != "0" {
		t.Fatalf("X-Replica-Lag-Seq = %q on caught-up follower, want \"0\"", got)
	}

	// Both roles report themselves on /healthz.
	rec, health := do(t, follower, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || health["role"] != "follower" {
		t.Fatalf("follower healthz: %d %v", rec.Code, health)
	}
	if _, ok := health["last_applied_seq"]; !ok {
		t.Fatalf("follower healthz missing last_applied_seq: %v", health)
	}
	if _, ok := health["replication_lag_records"]; !ok {
		t.Fatalf("follower healthz missing replication_lag_records: %v", health)
	}
	if _, ok := health["reconnects"]; !ok {
		t.Fatalf("follower healthz missing reconnects: %v", health)
	}
	if rec, health = do(t, primary, "GET", "/healthz", ""); health["role"] != "primary" {
		t.Fatalf("primary healthz role = %v", health["role"])
	}

	// Promotion on a node with no replica is a conflict.
	if rec, _ = do(t, primary, "POST", "/v1/promote", ""); rec.Code != http.StatusConflict {
		t.Fatalf("promote on primary: %d, want 409", rec.Code)
	}

	// Kill the primary, promote the follower, and write to it.
	ts.Close()
	rec, body = do(t, follower, "POST", "/v1/promote", "")
	if rec.Code != http.StatusOK || body["role"] != "primary" {
		t.Fatalf("promote: %d %v", rec.Code, body)
	}
	if rec, _ = do(t, follower, "POST", "/v1/models", modelXML("z_rep", 999)); rec.Code != http.StatusCreated {
		t.Fatalf("post-promotion write: %d", rec.Code)
	}
	// Promoted nodes no longer stamp the lag header or the follower role.
	rec, _ = do(t, follower, "POST", "/v1/search", searchBody)
	if got := rec.Header().Get("X-Replica-Lag-Seq"); got != "" {
		t.Fatalf("promoted node still stamps X-Replica-Lag-Seq = %q", got)
	}
	if _, health = do(t, follower, "GET", "/healthz", ""); health["role"] != "primary" {
		t.Fatalf("promoted healthz role = %v", health["role"])
	}
}

// A replication long-poll parked at the tip must not stall graceful
// shutdown: BeginShutdown cancels it promptly instead of letting it sit
// out its full wait_ms inside the drain window.
func TestShutdownWakesReplicationLongPoll(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	srv := NewPersistent(st, Config{})
	if rec, _ := do(t, srv, "POST", "/v1/models", modelXML("lp_shut", 901)); rec.Code != http.StatusCreated {
		t.Fatalf("seed POST: %d", rec.Code)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		// from = tip, so the handler parks in the long-poll wait.
		resp, err := http.Get(ts.URL + "/v1/replicate?from=1&wait_ms=60000")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the poll reach the wait
	srv.BeginShutdown()
	select {
	case <-done:
		// Cut or empty response — either way the handler returned and the
		// drain can complete. The follower's pull loop re-requests.
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked 5s after BeginShutdown")
	}
}
