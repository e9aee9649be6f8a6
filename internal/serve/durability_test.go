package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbmlcompose"
)

// These tests cover the -data durability path end to end through the
// HTTP surface: upload models, stop the server, reopen on the same data
// directory, and require /search and /compose to answer byte-for-byte as
// before — plus the new failure modes' status codes.

func openTestStore(t *testing.T, dir string) *sbmlcompose.CorpusStore {
	t.Helper()
	st, err := sbmlcompose.OpenCorpus(dir, &sbmlcompose.StoreOptions{
		Corpus: sbmlcompose.CorpusOptions{Shards: 2},
		Fsync:  sbmlcompose.FsyncNever, // tests reopen from files, not from a crash
	})
	if err != nil {
		t.Fatalf("OpenCorpus(%s): %v", dir, err)
	}
	return st
}

func TestServerStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s := NewPersistent(st, Config{})

	for i := 0; i < 6; i++ {
		xml := modelXML(string(rune('a'+i))+"_dur", int64(500+i))
		if rec, _ := do(t, s, "POST", "/v1/models", xml); rec.Code != http.StatusCreated {
			t.Fatalf("POST /models #%d: %d", i, rec.Code)
		}
	}
	// One removal so the WAL holds both record kinds.
	if rec, _ := do(t, s, "DELETE", "/v1/models/c_dur", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", rec.Code)
	}

	searchBody := jsonBody(t, map[string]any{"sbml": modelXML("a_dur", 500), "top_k": 10})
	composeBody := jsonBody(t, map[string]any{"id": "b_dur", "sbml": modelXML("query", 777)})
	recS, _ := do(t, s, "POST", "/v1/search", searchBody)
	recC, _ := do(t, s, "POST", "/v1/compose", composeBody)
	if recS.Code != http.StatusOK || recC.Code != http.StatusOK {
		t.Fatalf("pre-restart search/compose: %d / %d", recS.Code, recC.Code)
	}
	wantSearch := stripTookMS(t, recS.Body.String())
	wantCompose := recC.Body.String()

	// Stop the server (graceful close takes the final snapshot)...
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and bring a fresh one up on the same directory.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	if rs := st2.Stats(); rs.SnapshotModels != 5 {
		t.Fatalf("recovered snapshot models = %d, want 5 (stats %+v)", rs.SnapshotModels, rs)
	}
	s2 := NewPersistent(st2, Config{})

	recS2, _ := do(t, s2, "POST", "/v1/search", searchBody)
	recC2, _ := do(t, s2, "POST", "/v1/compose", composeBody)
	if recS2.Code != http.StatusOK || recC2.Code != http.StatusOK {
		t.Fatalf("post-restart search/compose: %d / %d", recS2.Code, recC2.Code)
	}
	if got := stripTookMS(t, recS2.Body.String()); got != wantSearch {
		t.Fatalf("/v1/search diverges across restart:\n got %s\nwant %s", got, wantSearch)
	}
	if got := recC2.Body.String(); got != wantCompose {
		t.Fatalf("/v1/compose diverges across restart:\n got %s\nwant %s", got, wantCompose)
	}

	// healthz reports the recovery.
	rec, payload := do(t, s2, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	storeInfo, ok := payload["store"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no store section: %v", payload)
	}
	recovery, ok := storeInfo["recovery"].(map[string]any)
	if !ok || recovery["snapshot_models"].(float64) != 5 {
		t.Fatalf("healthz recovery section = %v", storeInfo)
	}
}

// TestHealthzReportsKeyedWALReplay restarts on a raw WAL tail: the
// startup stats and /healthz report every logged add as installed from
// its persisted match keys, none as parsed.
func TestHealthzReportsKeyedWALReplay(t *testing.T) {
	dir := t.TempDir()
	opts := &sbmlcompose.StoreOptions{
		Corpus:            sbmlcompose.CorpusOptions{Shards: 2},
		Fsync:             sbmlcompose.FsyncNever,
		NoSnapshotOnClose: true, // keep the tail: recovery must replay it
	}
	st, err := sbmlcompose.OpenCorpus(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewPersistent(st, Config{})
	for i := 0; i < 3; i++ {
		if rec, _ := do(t, s, "POST", "/v1/models", modelXML(string(rune('a'+i))+"_wal", int64(600+i))); rec.Code != http.StatusCreated {
			t.Fatalf("POST /models #%d: %d", i, rec.Code)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := sbmlcompose.OpenCorpus(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rs := st2.Stats(); rs.WALAdds != 3 || rs.WALPrecompiled != 3 || rs.WALParsed != 0 {
		t.Fatalf("recovery stats %+v, want 3 WAL adds, all precompiled", rs)
	}
	_, payload := do(t, NewPersistent(st2, Config{}), "GET", "/v1/healthz", "")
	storeInfo, _ := payload["store"].(map[string]any)
	recovery, _ := storeInfo["recovery"].(map[string]any)
	if recovery["wal_precompiled"] != float64(3) || recovery["wal_parsed"] != float64(0) {
		t.Fatalf("healthz recovery section = %v", recovery)
	}
}

// stripTookMS drops the timing field so response comparison pins results,
// not latency.
func stripTookMS(t *testing.T, body string) string {
	t.Helper()
	i := strings.Index(body, `,"took_ms"`)
	if i < 0 {
		t.Fatalf("no took_ms in %s", body)
	}
	return body[:i]
}

func TestOpenFailureModes(t *testing.T) {
	plainFile := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(plainFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	corruptDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(corruptDir, "corpus.snap"), []byte("garbage snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	badWALDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badWALDir, "wal-0000000000000001.log"), []byte("notawal!"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		dir    string
		detail string // substring the recovery error must carry
	}{
		{"unwritable dir", filepath.Join(plainFile, "data"), "plainfile"},
		{"corrupt snapshot", corruptDir, "corrupt snapshot"},
		{"corrupt wal header", badWALDir, "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sbmlcompose.OpenCorpus(tc.dir, nil)
			if err == nil {
				t.Fatal("OpenCorpus succeeded")
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("error %q carries no %q detail", err, tc.detail)
			}
		})
	}
	// The corrupt-snapshot case is also matchable by sentinel.
	if _, err := sbmlcompose.OpenCorpus(corruptDir, nil); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt snapshot error lacks recovery detail: %v", err)
	}
}

func TestFailureModeStatusCodes(t *testing.T) {
	t.Run("snapshot without -data is 409", func(t *testing.T) {
		s := testServer()
		rec, payload := do(t, s, "POST", "/v1/snapshot", "")
		if rec.Code != http.StatusConflict {
			t.Fatalf("POST /snapshot: %d %v", rec.Code, payload)
		}
	})

	t.Run("snapshot success is 200 with store status", func(t *testing.T) {
		st := openTestStore(t, t.TempDir())
		defer st.Close()
		s := NewPersistent(st, Config{})
		do(t, s, "POST", "/v1/models", modelXML("snapme", 42))
		rec, payload := do(t, s, "POST", "/v1/snapshot", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /snapshot: %d %v", rec.Code, payload)
		}
		if _, ok := payload["store"].(map[string]any); !ok {
			t.Fatalf("snapshot response has no store status: %v", payload)
		}
	})

	t.Run("unwritable store dir makes snapshot 500", func(t *testing.T) {
		dir := t.TempDir()
		st := openTestStore(t, dir)
		defer st.Close()
		s := NewPersistent(st, Config{})
		do(t, s, "POST", "/v1/models", modelXML("doomed", 43))
		// Yank the directory out from under the store: the snapshot's
		// segment rotation and temp-file write have nowhere to go.
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		rec, payload := do(t, s, "POST", "/v1/snapshot", "")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("POST /snapshot on removed dir: %d %v", rec.Code, payload)
		}
		if msg, _ := payload["error"].(string); !strings.Contains(msg, "snapshot") {
			t.Fatalf("500 carries no snapshot detail: %v", payload)
		}
	})

	t.Run("persist failure makes mutations 500", func(t *testing.T) {
		st := openTestStore(t, t.TempDir())
		s := NewPersistent(st, Config{})
		do(t, s, "POST", "/v1/models", modelXML("pinned", 44))
		// A closed store is the cleanest reproducible WAL-append failure
		// (the same mapping covers disk-full and I/O errors).
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		rec, payload := do(t, s, "POST", "/v1/models", modelXML("late", 45))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("POST /models on closed store: %d %v", rec.Code, payload)
		}
		rec, payload = do(t, s, "DELETE", "/v1/models/pinned", "")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("DELETE on closed store: %d %v", rec.Code, payload)
		}
		// Reads keep serving the in-memory state.
		rec, _ = do(t, s, "GET", "/v1/healthz", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz after store close: %d", rec.Code)
		}
	})
}
