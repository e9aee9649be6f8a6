// Command sbmlbench is the repository's benchmark: it measures sbmlserved
// end to end, the way a client sees it, on four seeded workloads, and
// splits the time into the layers that produce it.
//
// Every workload runs in a fresh child process (the binary re-execs
// itself), so heap, GC state and peak RSS belong to that workload. The
// child serves the real serve.NewPersistent handler — or a cluster
// gateway over in-process shard nodes — on a loopback TCP listener and
// drives it from the same process with 2 clients over at most 2
// keep-alive connections. Every input comes from -seed; the parent builds
// the corpus, the durable fixture (a snapshot plus a WAL tail) and every
// reference answer before the child starts, so none of that is timed.
//
// # Running
//
//	go run ./cmd/sbmlbench -seed 1 -out run.json        # all workloads
//	go run ./cmd/sbmlbench -workload search-hot -seed 7 # one workload
//	bash cmd/sbmlbench/run.sh --workload search-hot --seed 7 --seconds 15 --trace 0
//
// run.sh builds the binary under .bench_build with a build cache there
// and runs it. Each workload prints one line per metric with its unit and
// sample count; the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is
// non-zero when any request failed or any output check did not hold:
// hot searches must equal a single-node reference byte for byte (took_ms
// aside), cluster rankings likewise, the ingest store must reopen with
// exactly the fixture plus acknowledged adds minus acknowledged removes,
// and simulate and check answers must equal those computed at set-up.
//
// -out writes a run file: a header (commit and dirty flag, Go version,
// GOMAXPROCS, nproc, seed, a note on where the latencies were measured),
// each workload's frozen parameters, its checks, and every metric with
// its unit and sample count. Quantiles are exact, taken from raw
// per-request samples.
//
// # Metrics
//
// BENCHMARK.json gates two end-to-end metrics, each with a regression
// bound: setup_s, the median of several set-ups (store open, or shard
// node start plus loading every model through the gateway, then server
// start and the first healthz 200), and heap_mb, the live heap the served
// system holds once it is up (a full collection after the last set-up,
// less the live heap of the benchmark's own inputs). Throughput, p50 and p99 latency, search p50
// and peak RSS are end-to-end too, but on a shared 2-vCPU host their
// spread between runs exceeds 10%, so they are reported and compared,
// not gated, and BENCHMARK.json lists them with the per-layer metrics.
// ingest-churn adds add_p50_ms and add_p99_ms; mixed-open adds compose,
// simulate and check p50 and slo_rps, the highest ladder rate whose p99
// is within 25 ms with at most 2 requests outstanding when its rung ends;
// every workload reports failed_frac. mixed-open takes its latencies at
// the middle rung, timed from each request's due time.
//
// # Tracing
//
//	go run ./cmd/sbmlbench -workload cluster-search -trace spans.jsonl
//
// -trace 1 (or a file name, which also receives the spans as JSON lines)
// runs the measured window twice: untraced, then traced. Every request
// carries an X-Request-Id that is also the id of its bench.request span.
// Three hooks, installed only when tracing, add child spans: a timing
// corpus.Persister around the store (store.persist_add and
// store.persist_remove, parented by the request that carried the model
// id), a timing http.RoundTripper in the gateway's node client
// (cluster.node_hop, parented by the forwarded X-Request-Id), and
// store.open spans under each bench.setup. The traced run reports
// BENCHMARK.json's per-layer list instead of the gated metrics; every
// end-to-end number in it comes from the untraced window, as do the
// runtime and generator figures, and a layer a workload does not
// exercise reads 0.
//
// # Reading self time
//
// Stage metrics (serve.decode_ms, sbml.parse_ms, corpus.score_ms, ...)
// are each layer's time per request the front handler served, taken from
// the deltas of the sbmlserved_stage_seconds histograms the server
// exposes at /v1/metrics (their _sum and _count are exact). They add up,
// with serve.unattributed_ms — the handler time no stage covers, i.e.
// encoding and routing — to serve.handler_ms. serve.transport_ms is the
// client span minus the front handler. The run file also lists each span
// name's self time per request: its duration minus the union of its
// children's intervals. Every per-layer metric names, in the run file,
// the end-to-end metric and workload it should move.
//
// # Comparing
//
//	go run ./cmd/sbmlbench -compare a1.json a2.json ... -- b1.json b2.json ...
//
// prints, for each workload and end-to-end metric, each side's median
// and quartiles, the relative delta, the share of index-paired runs B
// wins, and a verdict against the bounds in BENCHMARK.json: worse when
// B's median is worse by more than the bound; unresolved when the spread
// (quartile distance over median) exceeds the bound, unless every B run
// beats every A run; better when B wins at least nine tenths of the pairs
// and the medians differ by more than A's quartile distance; otherwise
// within-bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		os.Exit(childMain(dir))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed      int64
	seconds   float64
	trace     bool
	spansPath string
	quick     bool
	workdir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbmlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		name    = fs.String("workload", "", "run only this workload (default: all)")
		trace   = fs.String("trace", "0", "0 untraced; 1 traced; a file name traces and writes the spans there as JSON lines")
		out     = fs.String("out", "", "write the run file here")
		compare = fs.Bool("compare", false, "compare run files: -compare A.json... -- B.json...")
		bounds  = fs.String("benchmark", "BENCHMARK.json", "the benchmark definition -compare takes bounds from")
	)
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed builds the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "measured seconds per workload (default 15, or 0.5 with -quick)")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny corpora and short windows, for the smoke test")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for fixtures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *bounds, stdout, stderr)
	}
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace = true
	default:
		cfg.trace, cfg.spansPath = true, *trace
	}
	if cfg.seconds <= 0 {
		cfg.seconds = 15
		if cfg.quick {
			cfg.seconds = 0.5
		}
	}
	selected := append([]workload(nil), workloads...)
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "sbmlbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if cfg.quick {
		for i := range selected {
			selected[i] = selected[i].quickened()
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rf := runFile{Header: newHeader(cfg)}
	allCorrect := true
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, w, len(selected) > 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "sbmlbench: %s: %v\n", w.Name, err)
			return 1
		}
		wr := newWorkloadRun(w, res, cfg.trace)
		allCorrect = allCorrect && wr.Correct
		wr.print(stdout)
		rf.Workloads = append(rf.Workloads, wr)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "sbmlbench: write %s: %v\n", *out, err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rf.summary(cfg.trace)); err != nil {
		return 1
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// runWorkload prepares a workload's inputs here, runs it in a child
// process and returns what the child measured.
func runWorkload(ctx context.Context, cfg config, w workload, several bool, stderr io.Writer) (*childResult, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stderr, "sbmlbench: %s: preparing seed %d\n", w.Name, cfg.seed)
	in, err := prepare(w, cfg.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	in.Seconds, in.Trace = cfg.seconds, cfg.trace
	if in.SpansPath = cfg.spansPath; several && in.SpansPath != "" {
		ext := filepath.Ext(in.SpansPath)
		in.SpansPath = strings.TrimSuffix(in.SpansPath, ext) + "-" + w.Name + ext
	}
	b, err := json.Marshal(in)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "inputs.json"), b, 0o644)
	}
	if err != nil {
		return nil, err
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A traced run measures its window twice; set-up, warm-up and checks
	// stay well under the fixed allowance.
	limit := time.Duration((2*cfg.seconds + 100) * float64(time.Second))
	cctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	cmd := exec.CommandContext(cctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	cmd.WaitDelay = 5 * time.Second
	fmt.Fprintf(stderr, "sbmlbench: %s: running %gs\n", w.Name, cfg.seconds)
	if err := cmd.Run(); err != nil {
		if cctx.Err() != nil {
			err = errors.Join(err, cctx.Err())
		}
		return nil, fmt.Errorf("workload process: %w", err)
	}
	var res childResult
	if b, err = os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		return nil, fmt.Errorf("workload result: %w", err)
	}
	return &res, nil
}

// header stamps a run file with what it was measured on.
type header struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Quick      bool    `json:"quick"`
	Started    string  `json:"started"`
	Note       string  `json:"note"`
}

func newHeader(cfg config) header {
	commit, dirty := commitStamp()
	return header{
		Commit:     commit,
		Dirty:      dirty,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Quick:      cfg.quick,
		Started:    time.Now().UTC().Format(time.RFC3339),
		Note: "latencies are this machine's: server and load generator share its CPUs over loopback TCP, " +
			"and fsync goes to the work directory's disk (measured on ext4 over virtio)",
	}
}

// commitStamp reads the commit from the binary's VCS stamp, falling back
// to asking git; "unknown" outside a repository.
func commitStamp() (string, bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return rev, dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}
