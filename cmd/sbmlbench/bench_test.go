package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for sbmlbench's re-exec'd
// workload process.
func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnv); dir != "" {
		os.Exit(childMain(dir))
	}
	os.Exit(m.Run())
}

type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkDef(t *testing.T) benchmarkDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestCatalogMatchesBenchmarkJSON keeps the workloads and metrics the
// code reports in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	def := readBenchmarkDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), catalog %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, layerList())
}

// TestQuickSmoke runs every workload on tiny corpora, untraced and
// traced, and checks what a benchmark run promises: every BENCHMARK.json
// metric with its unit, passing output checks, spans whose parents
// resolve, and stage times that add up to the handler time.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := readBenchmarkDef(t)
	dir := t.TempDir()

	untraced := filepath.Join(dir, "untraced.json")
	last := runOK(t, "-quick", "-seed", "3", "-workdir", dir, "-out", untraced)
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !sum.Correct || sum.Attempted == 0 || sum.Failed != 0 {
		t.Fatalf("summary: correct %v, attempted %d, failed %d", sum.Correct, sum.Attempted, sum.Failed)
	}
	rf := readRunFile(t, untraced)
	if rf.Header.Seed != 3 || rf.Header.GOMAXPROCS == 0 || rf.Header.Commit == "" {
		t.Errorf("header: %+v", rf.Header)
	}
	for _, wr := range rf.Workloads {
		for _, m := range def.EndToEnd {
			got, ok := wr.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s missing, not in %s or not positive: %+v", wr.Workload.Name, m.Name, m.Unit, got)
			}
			if s, ok := sum.Metrics[wr.Workload.Name+"/"+m.Name]; !ok || s.Unit != m.Unit {
				t.Errorf("%s: summary lacks %s", wr.Workload.Name, m.Name)
			}
		}
		checksPass(t, wr)
	}

	spansPath := filepath.Join(dir, "spans.jsonl")
	traced := filepath.Join(dir, "traced.json")
	runOK(t, "-quick", "-seed", "3", "-workdir", dir, "-trace", spansPath, "-out", traced)
	rf = readRunFile(t, traced)
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("traced run has %d workloads", len(rf.Workloads))
	}
	for _, wr := range rf.Workloads {
		for _, m := range def.PerLayer {
			if got, ok := wr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or not in %s: %+v", wr.Workload.Name, m.Name, m.Unit, got)
			}
		}
		checksPass(t, wr)
		if wr.Spans == 0 {
			t.Errorf("%s: no spans", wr.Workload.Name)
		}
		metric := func(name string) float64 { return wr.Metrics[name].Value }
		// A renamed server series reads 0, so each layer must read above
		// its floor on the workload it should move.
		for name, floor := range exercised[wr.Workload.Name] {
			if v := metric(name); !(v > floor) {
				t.Errorf("%s: %s = %g, want above %g", wr.Workload.Name, name, v, floor)
			}
		}
		stages := 0.0
		for _, name := range []string{"serve.decode_ms", "serve.cache_lookup_ms", "sbml.parse_ms", "core.compile_ms",
			"core.compose_ms", "corpus.retrieve_ms", "corpus.score_ms", "corpus.merge_ms", "corpus.add_self_ms",
			"store.append_ms", "sim.simulate_ms", "mc2.check_ms"} {
			stages += metric(name)
		}
		handler, rest := metric("serve.handler_ms"), metric("serve.unattributed_ms")
		if handler <= 0 || math.Abs(stages+rest-handler) > 0.05*handler || rest < -0.05*handler {
			t.Errorf("%s: stages %.4g + unattributed %.4g do not add up to handler %.4g", wr.Workload.Name, stages, rest, handler)
		}
	}
	for _, w := range workloads {
		spansResolve(t, strings.TrimSuffix(spansPath, ".jsonl")+"-"+w.Name+".jsonl")
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-benchmark", filepath.Join("..", "..", "BENCHMARK.json"), untraced, "--", untraced}, &out, &errOut); code != 0 {
		t.Fatalf("compare exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "within-bound") || strings.Contains(out.String(), "worse") {
		t.Errorf("a run compared with itself:\n%s", out.String())
	}
}

// exercised lists, per workload, the per-layer metrics it must move and
// the value each must exceed there. Together they read every
// sbmlserved_, sbmlstore_ and sbmlgw_ series the traced run scrapes.
var exercised = map[string]map[string]float64{
	"search-hot": {
		"serve.cache_lookup_ms":       0,
		"corpus.retrieve_ms":          0,
		"corpus.score_ms":             0,
		"corpus.merge_ms":             0,
		"serve.query_cache_hit_ratio": 0.5,
		"store.recovery_s":            0,
		"store.recovery_wal_records":  0,
	},
	"ingest-churn": {
		"serve.decode_ms":         0,
		"sbml.parse_ms":           0,
		"core.compile_ms":         0,
		"corpus.retrieve_ms":      0,
		"corpus.score_ms":         0,
		"corpus.add_self_ms":      0,
		"store.append_ms":         0,
		"store.fsync_ms":          0,
		"store.fsyncs_per_record": 0,
	},
	"mixed-open": {
		"core.compose_ms":           0,
		"sim.simulate_ms":           0,
		"mc2.check_ms":              0,
		"bench.dispatch_lag_p99_ms": 0,
	},
	"cluster-search": {
		"cluster.node_hop_ms":              0,
		"cluster.slowest_hop_ms":           0,
		"cluster.gateway_self_ms":          0,
		"cluster.node_requests_per_search": 1,
	},
}

// runOK runs sbmlbench and returns the last line of its standard output.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("sbmlbench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	return lines[len(lines)-1]
}

func readRunFile(t *testing.T, path string) runFile {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rf runFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	return rf
}

func checksPass(t *testing.T, wr workloadRun) {
	t.Helper()
	if !wr.Correct || wr.Failed != 0 || len(wr.Checks) == 0 {
		t.Errorf("%s: correct %v, failed %d of %d", wr.Workload.Name, wr.Correct, wr.Failed, wr.Attempted)
	}
	for _, c := range wr.Checks {
		if !c.OK {
			t.Errorf("%s: check %q failed: %s", wr.Workload.Name, c.Name, c.Detail)
		}
	}
}

// spansResolve reads a spans file and checks every parent names a span
// in it, and every parentless span is a root.
func spansResolve(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID     string `json:"id"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, span{ID: s.ID, Parent: s.Parent, Name: s.Name})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	if n := unresolved(spans); n != 0 {
		t.Errorf("%s: %d of %d spans do not resolve", path, n, len(spans))
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", base, base, false, "within-bound"},
		{"slower past the bound", base, scale(1.2), false, "worse"},
		{"faster, every pair", base, scale(0.8), false, "better"},
		{"more throughput", base, scale(1.2), true, "better"},
		{"within the bound", base, scale(1.03), false, "within-bound"},
		{"too noisy to tell", noisy, scale(1.05), false, "unresolved"},
	}
	for _, c := range cases {
		if got := compareMetric(c.a, c.b, c.higher, 0.1, false).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := compareMetric([]float64{0, 0}, []float64{0, 0.01}, false, 0, true).verdict; got != "worse" {
		t.Errorf("a rise in failed_frac: verdict %s, want worse", got)
	}
}
