// Command sbmlserved serves a model repository over HTTP: the corpus
// subsystem (sharded storage, inverted-index top-K matching, cached
// simulation engines) exposed as a versioned JSON query service, the
// serving layer the ROADMAP's "heavy traffic" north star demands. The
// server itself lives in internal/serve (see that package's doc for the
// full API); this binary is flags, lifecycle, and logging.
//
// With -data DIR the corpus is durable: every add/remove is appended to a
// write-ahead log (fsynced per -fsync: "always" acknowledges no append
// before an fsync covers it, group-committing concurrent appends into one
// sync; "interval" syncs on a timer; "never" leaves flushing to the OS)
// before it is acknowledged, and snapshots bound recovery time. Restarting the server on the same directory
// reconstructs the corpus exactly — ids, rankings, scores.
// Without -data the corpus lives in memory only.
//
// Observability: GET /v1/metrics serves a Prometheus text exposition
// covering per-route request counts and latency histograms, pipeline
// stage timings, WAL append/fsync/group-commit/snapshot durability
// series, and replication lag. Every request is logged with its
// X-Request-Id; requests slower than -slow-request additionally log a
// per-stage breakdown. -pprof mounts net/http/pprof under /debug/pprof/.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window before the listener closes; with -data the shutdown
// takes a final snapshot so the next start is a pure snapshot load. The
// shutdown log repeats each route's count and p50/p95/p99 latency.
//
// With -gateway the binary runs as a stateless scatter-gather
// coordinator instead: -node lists the shard node base URLs, model ids
// are partitioned across them by rendezvous hashing, write routes
// forward to the owning node, and /v1/search fans out to every node and
// merges rankings byte-identically to a single-node corpus. See
// internal/cluster for the routing and degraded-mode contract.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8451", "listen address (host:port; port 0 picks a free port)")
		shards      = flag.Int("shards", 4, "corpus shard count")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		reqTimeout  = flag.Duration("request-timeout", 60*time.Second, "per-request deadline for search/compose/simulate/check (0 disables)")
		dataDir     = flag.String("data", "", "durable store directory (empty = in-memory corpus, lost on exit)")
		fsync       = flag.String("fsync", "always", "WAL fsync policy with -data: always (group commit: no acknowledged write lost) | interval | never")
		compact     = flag.Int64("compact-bytes", 0, "WAL tail size triggering auto-compaction (0 = 8 MiB default, <0 disables)")
		queryCache  = flag.Int("query-cache", 128, "compiled-query cache entries keyed on raw /v1/search bodies (0 disables)")
		replicaOf   = flag.String("replica-of", "", "run as a read-only follower of the primary at this base URL (requires -data; mutations answer 403 until POST /v1/promote)")
		slowRequest = flag.Duration("slow-request", time.Second, "log requests slower than this with their per-stage breakdown (0 disables)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		gateway     = flag.Bool("gateway", false, "run as a scatter-gather gateway over the shard nodes in -node (no corpus of its own)")
		nodeList    = flag.String("node", "", "gateway mode: comma-separated shard node base URLs (e.g. http://10.0.0.1:8451,http://10.0.0.2:8451)")
		nodeTimeout = flag.Duration("node-timeout", 30*time.Second, "gateway mode: per-attempt deadline for node requests")
		nodeRetries = flag.Int("node-retries", 3, "gateway mode: transport-failure attempts per node request (HTTP statuses are never retried)")
	)
	flag.Parse()
	if *replicaOf != "" && *dataDir == "" {
		log.Fatalf("sbmlserved: -replica-of requires -data (the follower persists the primary's log locally)")
	}
	if !*gateway && *nodeList != "" {
		log.Fatalf("sbmlserved: -node requires -gateway")
	}
	if *gateway {
		// A gateway holds no models: the shard nodes are the stores. The
		// corpus/durability/replication flags all describe node state and
		// are rejected rather than silently ignored.
		if *dataDir != "" || *replicaOf != "" {
			log.Fatalf("sbmlserved: -gateway is incompatible with -data and -replica-of (shard nodes own the stores)")
		}
		runGateway(*addr, *nodeList, *nodeTimeout, *nodeRetries, *drain)
		return
	}

	// One registry serves /v1/metrics; it must exist before the store
	// opens so recovery-time appends already have somewhere to land.
	reg := obs.NewRegistry()
	copts := sbmlcompose.CorpusOptions{Shards: *shards}
	cfg := serve.Config{
		Registry:       reg,
		RequestTimeout: *reqTimeout,
		QueryCache:     *queryCache,
		SlowRequest:    *slowRequest,
		Logf:           log.Printf,
		Pprof:          *pprofFlag,
	}
	if *queryCache <= 0 {
		cfg.QueryCache = -1
	}
	if *slowRequest <= 0 {
		cfg.SlowRequest = -1
	}

	var srv *serve.Server
	if *dataDir != "" {
		st, err := sbmlcompose.OpenCorpus(*dataDir, &sbmlcompose.StoreOptions{
			Corpus:       copts,
			Fsync:        sbmlcompose.FsyncPolicy(*fsync),
			CompactBytes: *compact,
			Metrics:      serve.NewStoreMetrics(reg),
		})
		if err != nil {
			log.Fatalf("sbmlserved: open data dir: %v", err)
		}
		rs := st.Stats()
		log.Printf("sbmlserved: recovered %s: %d snapshot models (seq %d; %d precompiled, %d parsed), %d WAL records (%d adds, %d removes, %d skipped; adds %d precompiled, %d parsed)",
			*dataDir, rs.SnapshotModels, rs.SnapshotSeq, rs.SnapshotPrecompiled, rs.SnapshotParsed,
			rs.WALRecords, rs.WALAdds, rs.WALRemoves, rs.WALSkipped, rs.WALPrecompiled, rs.WALParsed)
		if rs.TornTail {
			log.Printf("sbmlserved: dropped torn WAL tail (%d bytes of unacknowledged writes)", rs.DroppedBytes)
		}
		srv = serve.NewPersistent(st, cfg)
		if *replicaOf != "" {
			rep, err := sbmlcompose.StartReplica(st, sbmlcompose.ReplicaOptions{
				PrimaryURL: *replicaOf,
				Metrics:    serve.NewReplicaMetrics(reg),
			})
			if err != nil {
				log.Fatalf("sbmlserved: start replica: %v", err)
			}
			srv.SetReplica(rep)
			log.Printf("sbmlserved: following %s from seq %d (read-only until promoted)", *replicaOf, st.LastSeq())
		}
	} else {
		srv = serve.New(sbmlcompose.NewCorpus(&copts), cfg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sbmlserved: %v", err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	log.Printf("sbmlserved listening on %s", ln.Addr())

	select {
	case err := <-done:
		log.Fatalf("sbmlserved: %v", err)
	case <-ctx.Done():
	}
	log.Printf("sbmlserved: shutting down (drain %s)", *drain)
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("sbmlserved: drain incomplete: %v", err)
	}
	if rep := srv.ReplicaHandle(); rep != nil {
		// Stop pulling before the store closes; the store stays read-only,
		// so a restart with the same flags resumes from the durable seq.
		rep.Stop()
	}
	if st := srv.Store(); st != nil {
		// Graceful-shutdown snapshot: the next start recovers from the
		// snapshot alone instead of replaying the whole WAL.
		if err := st.Close(); err != nil {
			log.Printf("sbmlserved: store close: %v", err)
		} else {
			log.Printf("sbmlserved: final snapshot written (%d models)", st.Corpus().Len())
		}
	}
	for _, line := range srv.StatsLines() {
		log.Print(line)
	}
}

// runGateway is the -gateway main: build the scatter-gather coordinator
// over the shard nodes, serve until a signal, drain, exit. No store, no
// corpus — the gateway is stateless and restartable at will.
func runGateway(addr, nodeList string, nodeTimeout time.Duration, nodeRetries int, drain time.Duration) {
	var nodes []string
	for _, n := range strings.Split(nodeList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		log.Fatalf("sbmlserved: -gateway requires -node with at least one shard node URL")
	}
	gw, err := sbmlcompose.New().OpenGateway(nodes, &sbmlcompose.GatewayOptions{
		Registry:    obs.NewRegistry(),
		NodeTimeout: nodeTimeout,
		Retries:     nodeRetries,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatalf("sbmlserved: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("sbmlserved: %v", err)
	}
	httpSrv := &http.Server{Handler: gw, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	log.Printf("sbmlserved gateway listening on %s, %d shard nodes: %s",
		ln.Addr(), len(nodes), strings.Join(nodes, ", "))

	select {
	case err := <-done:
		log.Fatalf("sbmlserved: %v", err)
	case <-ctx.Done():
	}
	log.Printf("sbmlserved: gateway shutting down (drain %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("sbmlserved: drain incomplete: %v", err)
	}
}
