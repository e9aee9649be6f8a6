package main

import "time"

// workload is one traffic mix the benchmark runs, with every parameter
// that shapes it frozen here so two commits are always measured on the
// same inputs. The why strings are BENCHMARK.json's; the smoke test keeps
// the two in step.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Models is the corpus size; WALTail the records the durable fixture
	// keeps past its snapshot (0 means the corpus lives in memory).
	Models  int `json:"models"`
	WALTail int `json:"wal_tail_records,omitempty"`
	// Nodes is the shard-node count behind a cluster gateway.
	Nodes int `json:"nodes,omitempty"`
	// Clients is the closed-loop client count; Conns caps the keep-alive
	// connections of the one load-generating process.
	Clients int `json:"clients"`
	Conns   int `json:"conns"`
	// HotBodies distinct search bodies, each a stored model's own SBML,
	// drawn Zipf(ZipfS); TopK is every search's window.
	HotBodies int     `json:"hot_bodies,omitempty"`
	ZipfS     float64 `json:"zipf_s,omitempty"`
	TopK      int     `json:"top_k"`
	// Mix is the traffic mix in percent per operation.
	Mix []share `json:"mix"`
	// RatesRPS is the open-loop ladder (absolute req/s); empty means a
	// closed loop.
	RatesRPS []float64 `json:"rates_rps,omitempty"`
	// ComposeNodes sizes the /v1/compose query; SimT1 ends every
	// /v1/simulate and /v1/check run.
	ComposeNodes int     `json:"compose_nodes,omitempty"`
	SimT1        float64 `json:"sim_t1,omitempty"`
	// WarmupS is the untimed traffic after the one pass over every
	// distinct body; Setups is how many set-ups setup_s is the median of.
	// Their median varies by about 5% within a run, a third to a half of
	// the spread between runs, so every workload sets up at least 7 times,
	// and a store open, which takes a fifth of a second, 11 times.
	WarmupS float64 `json:"warmup_s"`
	Setups  int     `json:"setups"`
}

// share is one operation's percentage of a mix.
type share struct {
	Op  string `json:"op"`
	Pct int    `json:"pct"`
}

// The operations a mix draws from.
const (
	opSearch   = "search"      // hot /v1/search: a stored model's body, cached after first sight
	opCold     = "search_cold" // /v1/search with a never-seen body
	opAdd      = "add"         // POST /v1/models of a fresh model
	opRemove   = "remove"      // DELETE /v1/models/{id} of the run's oldest add
	opCompose  = "compose"
	opSimulate = "simulate"
	opCheck    = "check"
)

// mixedCapacityRPS is the mixed-open mix's 2-client closed-loop capacity
// on a 2-vCPU Xeon VM with ext4 over virtio: the throughput_rps of a
// one-off run of that mix with RatesRPS emptied, which makes it a closed
// loop. It is frozen so the ladder offers the same absolute load on every
// commit.
const mixedCapacityRPS = 1200

var workloads = []workload{
	{
		Name:   "search-hot",
		Why:    "repeated stored-model queries hit the raw-body query cache, so corpus retrieve/score/merge and response encoding dominate",
		Models: 1000, WALTail: 300,
		Clients: 2, Conns: 2,
		HotBodies: 64, ZipfS: 1.1, TopK: 10,
		Mix:     []share{{opSearch, 100}},
		WarmupS: 3, Setups: 11,
	},
	{
		Name:   "ingest-churn",
		Why:    "fresh adds, deletes and never-seen searches bypass the query cache, so SBML parse, compile, WAL append and fsync dominate",
		Models: 1000, WALTail: 300,
		Clients: 2, Conns: 2,
		TopK:    10,
		Mix:     []share{{opAdd, 45}, {opRemove, 45}, {opCold, 10}},
		WarmupS: 3, Setups: 11,
	},
	{
		Name:   "mixed-open",
		Why:    "an open-loop rate ladder over search, compose, simulate and check: the only workload running compose, sim and mc2, and where queueing sets the tail",
		Models: 200, WALTail: 300,
		Clients: 2, Conns: 2,
		HotBodies: 64, ZipfS: 1.1, TopK: 10,
		Mix:          []share{{opSearch, 50}, {opCompose, 20}, {opSimulate, 20}, {opCheck, 10}},
		RatesRPS:     []float64{0.25 * mixedCapacityRPS, 0.50 * mixedCapacityRPS, 0.75 * mixedCapacityRPS},
		ComposeNodes: 60, SimT1: 0.5,
		WarmupS: 3, Setups: 11,
	},
	{
		Name:    "cluster-search",
		Why:     "search-hot's corpus, bodies and draw through a gateway over 3 shard nodes, so the gap to search-hot is the fan-out, node hop and merge",
		Models:  1000,
		Nodes:   3,
		Clients: 2, Conns: 2,
		HotBodies: 64, ZipfS: 1.1, TopK: 10,
		Mix:     []share{{opSearch, 100}},
		WarmupS: 3, Setups: 7,
	},
}

// quickened shrinks a workload for the smoke test: tiny corpora, short
// warm-up, a low ladder. The traffic shapes stay the same.
func (w workload) quickened() workload {
	w.Models = 40
	if w.WALTail > 0 {
		w.WALTail = 20
	}
	if w.HotBodies > 0 {
		w.HotBodies = 8
	}
	if len(w.RatesRPS) > 0 {
		w.RatesRPS = []float64{20, 40, 60}
	}
	if w.ComposeNodes > 0 {
		w.ComposeNodes = 12
	}
	w.WarmupS = 0.1
	w.Setups = 2
	return w
}

func (w workload) durable() bool  { return w.WALTail > 0 }
func (w workload) openLoop() bool { return len(w.RatesRPS) > 0 }
func (w workload) warmup() time.Duration {
	return time.Duration(w.WarmupS * float64(time.Second))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric. Moves, on a per-layer metric,
// names the end-to-end metric and workload it should move.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
}

// endToEnd are the metrics BENCHMARK.json gates, each with a regression
// bound: every workload reports them untraced. heap_mb is the live heap
// the served system holds after set-up. The resident set is not gated: on
// ingest-churn, background compaction holds a snapshot image in memory for
// a share of the window that varies with the host's speed, and moves it by
// about 10% between runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "heap_mb", Unit: "MB", Better: "lower"},
}

// unsteady are end-to-end metrics whose spread between runs (IQR over
// median, ten seeds) exceeds 10% on a shared 2-vCPU host, whose speed
// drifts by tens of percent over minutes. They are not gated: every
// untraced run reports them for the run file and -compare, and
// BENCHMARK.json lists them with the per-layer metrics, which a traced
// run reports from its untraced window.
var unsteady = []metricDef{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Moves: "end-to-end, ungated: successful operations per second"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Moves: "end-to-end, ungated: median latency (mixed-open: middle rung, from due time)"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Moves: "end-to-end, ungated: p99 latency (mixed-open: middle rung, from due time)"},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower", Moves: "end-to-end, ungated: median search latency (cold on ingest-churn)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Moves: "end-to-end, ungated: peak resident set (VmHWM) of the workload process"},
}

// workloadEndToEnd are end-to-end metrics only some workloads have. They
// go to the run file and -compare (bound defaultBound), not to the
// one-line result, which must carry the same metrics for every workload.
var workloadEndToEnd = map[string][]metricDef{
	"ingest-churn": {
		{Name: "add_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "add_p99_ms", Unit: "ms", Better: "lower"},
	},
	"mixed-open": {
		{Name: "compose_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "simulate_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "check_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "slo_rps", Unit: "1/s", Better: "higher"},
	},
}

// failedFrac is reported for every workload in the run file; -compare
// bounds it absolutely: any rise is a regression.
var failedFrac = metricDef{Name: "failed_frac", Unit: "ratio", Better: "lower"}

// defaultBound is the relative regression bound of an end-to-end metric
// BENCHMARK.json does not list.
const defaultBound = 0.10

// perLayer are the traced run's layer metrics. Times marked "per request"
// are the layer's self time per request the front handler served, so the
// stage metrics plus serve.unattributed_ms add up to serve.handler_ms.
var perLayer = []metricDef{
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on search-hot: front handler time per request (route histogram mean)"},
	{Name: "serve.transport_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on search-hot and cluster-search: client span minus front handler time"},
	{Name: "serve.decode_ms", Unit: "ms", Better: "lower", Moves: "search_p50_ms on ingest-churn: JSON decode per request (a query-cache hit skips it, so search-hot reads 0)"},
	{Name: "serve.cache_lookup_ms", Unit: "ms", Better: "lower", Moves: "search_p50_ms on ingest-churn, latency_p50_ms on search-hot: raw-body query cache lookup per request"},
	{Name: "serve.query_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms on search-hot: cache hits over searches, about 1 there and 0 on ingest-churn"},
	{Name: "serve.unattributed_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on search-hot: handler time no stage covers (encode, routing) per request"},
	{Name: "sbml.parse_ms", Unit: "ms", Better: "lower", Moves: "add_p50_ms and search_p50_ms on ingest-churn: SBML parse per request"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower", Moves: "search_p50_ms on ingest-churn: query compile per request"},
	{Name: "core.compose_ms", Unit: "ms", Better: "lower", Moves: "compose_p50_ms on mixed-open: compose per request"},
	{Name: "corpus.retrieve_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps on search-hot and cluster-search: posting-list retrieval per request"},
	{Name: "corpus.score_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps on search-hot and cluster-search: candidate scoring per request"},
	{Name: "corpus.merge_ms", Unit: "ms", Better: "lower", Moves: "throughput_rps on search-hot and cluster-search: ranking merge per request"},
	{Name: "corpus.add_self_ms", Unit: "ms", Better: "lower", Moves: "add_p50_ms on ingest-churn: persist stage minus store.append_ms (compile, serialize, index) per request"},
	{Name: "store.append_ms", Unit: "ms", Better: "lower", Moves: "add_p50_ms on ingest-churn: WAL append through the Persister per request"},
	{Name: "store.append_p99_ms", Unit: "ms", Better: "lower", Moves: "add_p99_ms on ingest-churn: p99 of one Persister append"},
	{Name: "store.fsync_ms", Unit: "ms", Better: "lower", Moves: "add_p50_ms on ingest-churn: WAL fsync per request"},
	{Name: "store.fsyncs_per_record", Unit: "ratio", Better: "lower", Moves: "add_p50_ms on ingest-churn: fsyncs over WAL records appended"},
	{Name: "store.snapshots", Unit: "count", Better: "lower", Moves: "add_p99_ms on ingest-churn: background compactions in the window"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower", Moves: "add_p99_ms on ingest-churn: mean time of one compaction"},
	{Name: "store.recovery_s", Unit: "s", Better: "lower", Moves: "setup_s on every durable workload: median store open"},
	{Name: "store.recovery_wal_records", Unit: "count", Better: "lower", Moves: "setup_s on every durable workload: WAL records replayed at open"},
	{Name: "store.recovery_precompiled", Unit: "count", Better: "higher", Moves: "setup_s on every durable workload: snapshot models installed from persisted keys"},
	{Name: "sim.simulate_ms", Unit: "ms", Better: "lower", Moves: "simulate_p50_ms, check_p50_ms and latency_p99_ms on mixed-open: ODE simulation per request"},
	{Name: "mc2.check_ms", Unit: "ms", Better: "lower", Moves: "check_p50_ms and latency_p99_ms on mixed-open: formula check per request"},
	{Name: "cluster.node_hop_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on cluster-search: mean gateway-to-node round trip"},
	{Name: "cluster.node_hop_p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p99_ms on cluster-search: p99 gateway-to-node round trip"},
	{Name: "cluster.slowest_hop_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms and latency_p99_ms on cluster-search: slowest hop per gateway request"},
	{Name: "cluster.gateway_self_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on cluster-search: gateway request minus its slowest hop (decode, merge, re-encode)"},
	{Name: "cluster.node_requests_per_search", Unit: "ratio", Better: "lower", Moves: "throughput_rps on cluster-search: node requests over gateway searches"},
	{Name: "cluster.node_retries", Unit: "count", Better: "lower", Moves: "failed_frac on cluster-search: node transport failures retried"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "throughput_rps on every workload: heap bytes allocated per operation, untraced"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: "throughput_rps on every workload: heap objects allocated per operation, untraced"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "latency_p99_ms on every workload: GC share of process CPU, untraced"},
	{Name: "bench.dispatch_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "harness health on mixed-open: p99 of how late the open-loop generator sent"},
	{Name: "bench.backlog_end", Unit: "count", Better: "lower", Moves: "slo_rps on mixed-open: requests outstanding at the end of the middle step"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "harness health on every workload: traced over untraced mean latency, minus 1"},
}
