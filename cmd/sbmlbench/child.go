package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/cluster"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/serve"
)

// childEnv names the work directory of a re-exec'd workload process.
const childEnv = "SBMLBENCH_CHILD"

// value is one reported number. Samples, on a quantile or mean, is how
// many raw samples it was computed from.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// stageDelta is one sbmlserved_stage_seconds series over the traced
// window.
type stageDelta struct {
	Count float64 `json:"count"`
	SumMs float64 `json:"sum_ms"`
}

// childResult is what a workload process hands back to the parent.
type childResult struct {
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Checks    []checkResult    `json:"checks"`
	Metrics   map[string]value `json:"metrics"`
	// SelfTimeMs is each span name's self time per traced request;
	// Stages the per-stage histogram deltas of the traced window.
	SelfTimeMs map[string]float64    `json:"self_time_ms,omitempty"`
	Stages     map[string]stageDelta `json:"stages,omitempty"`
	Spans      int                   `json:"spans,omitempty"`
	// Ladder is the untraced open loop, rung by rung.
	Ladder []rung `json:"ladder,omitempty"`
}

// rung is one open-loop rate's latency, from raw samples.
type rung struct {
	RateRPS    float64 `json:"rate_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Samples    int     `json:"samples"`
	Failed     int64   `json:"failed"`
	BacklogEnd int64   `json:"backlog_end"`
}

// put records a metric, with its unit from the catalog.
func (r *childResult) put(name string, v float64, samples int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

// addCheck records a post-run output check; each counts as one attempt.
func (r *childResult) addCheck(c checkResult) {
	r.Checks = append(r.Checks, c)
	r.Attempted++
	if !c.OK {
		r.Failed++
	}
}

// childMain runs one workload in this process — re-exec'd by the parent,
// so heap, GC state and peak RSS belong to that workload alone — and
// writes its result next to its inputs.
func childMain(dir string) int {
	var in inputs
	b, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err == nil {
		err = json.Unmarshal(b, &in)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbmlbench child: %v\n", err)
		return 1
	}
	res, err := runChild(context.Background(), &in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbmlbench child %s: %v\n", in.Workload.Name, err)
		return 1
	}
	if b, err = json.Marshal(res); err == nil {
		err = os.WriteFile(filepath.Join(dir, "result.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbmlbench child: %v\n", err)
		return 1
	}
	return 0
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	done chan error
	url  string
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// system is the server side of one set-up: a durable node, or a gateway
// over in-memory shard nodes.
type system struct {
	front   string   // what the load generator talks to
	nodes   []string // scraped for serve and store series
	gateway string
	store   *sbmlcompose.CorpusStore
	servers []*httpServer
}

func (s *system) stop() error {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].stop()
	}
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// bench is the state of one workload run in the child.
type bench struct {
	in     *inputs
	w      workload
	client *http.Client
	spans  *spanLog
	gen    *generator
	sys    *system

	// One request per distinct body, and the bodies fresh adds and cold
	// searches are made from.
	hot, compose, sims, checks []request
	addPool, coldPool          [][]byte
	// setups are the set-up times; opens the store opens among them.
	setups, opens []float64
	recovery      sbmlcompose.RecoveryStats

	// ingest-churn state: fresh-id counters, the FIFO of acked adds the
	// removes drain, and every acknowledged mutation.
	addSeq, coldSeq atomic.Uint64
	mu              sync.Mutex
	fifo            []string
	ackedAdds       map[string]bool
	ackedRemoves    map[string]bool
}

func runChild(ctx context.Context, in *inputs) (*childResult, error) {
	b := &bench{
		in:           in,
		w:            in.Workload,
		client:       newClient(in.Workload.Conns),
		ackedAdds:    map[string]bool{},
		ackedRemoves: map[string]bool{},
	}
	defer b.client.CloseIdleConnections()
	if in.Trace {
		b.spans = newSpanLog()
	}
	b.templates()
	res := &childResult{Metrics: map[string]value{}}

	// heap_mb is the live heap the served system holds once it is up: the
	// heap after the last set-up less what the benchmark's own inputs hold.
	base := liveHeapMB()
	for i := 0; i < b.w.Setups; i++ {
		last := i == b.w.Setups-1
		sys, err := b.setup(ctx, i, last)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		if last {
			b.sys = sys
		} else if err := sys.stop(); err != nil {
			return nil, fmt.Errorf("setup %d teardown: %w", i, err)
		}
		runtime.GC()
	}
	res.put("heap_mb", liveHeapMB()-base, 0)
	b.gen = &generator{base: b.sys.front, client: b.client, spans: b.spans}
	stopped := false
	defer func() {
		if !stopped {
			b.sys.stop()
		}
	}()

	warm := b.warmup(ctx)
	untraced, err := b.measure(ctx, false)
	if err != nil {
		return nil, err
	}
	recs := []*recorder{warm}
	recs = append(recs, untraced.recorders()...)
	var traced *phase
	if in.Trace {
		if traced, err = b.measure(ctx, true); err != nil {
			return nil, err
		}
		recs = append(recs, traced.recorders()...)
	}
	rss := procStatusMB("VmHWM:")

	var firstErr error
	for _, r := range recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	ops := checkResult{Name: "every response succeeded and matched its expected answer", OK: res.Failed == 0}
	if firstErr != nil {
		ops.Detail = firstErr.Error()
	}
	res.Checks = append(res.Checks, ops)

	stopped = true
	if err := b.sys.stop(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if b.w.Name == "ingest-churn" {
		res.addCheck(b.checkRecovered())
	}

	if in.Trace {
		res.Spans = len(traced.spans)
		c := checkResult{Name: "every span's parent resolves", OK: true}
		if n := unresolved(traced.spans); n > 0 {
			c = checkResult{Name: c.Name, Detail: fmt.Sprintf("%d of %d spans have no parent", n, len(traced.spans))}
		}
		res.addCheck(c)
		b.layers(res, untraced, traced)
		if in.SpansPath != "" {
			if err := b.spans.writeSpans(in.SpansPath, b.spans.since(0)); err != nil {
				return nil, err
			}
		}
	}
	b.endToEnd(res, untraced, rss)
	res.Metrics[failedFrac.Name] = value{Value: float64(res.Failed) / float64(res.Attempted), Unit: failedFrac.Unit}
	return res, nil
}

// setup brings the system up once and records how long it took: a store
// open plus server start for durable workloads, node start plus loading
// every model through the gateway for the cluster. Only the last set-up
// keeps its store's final snapshot, so the fixture stays intact until
// then; only it gets the tracing hooks.
func (b *bench) setup(ctx context.Context, i int, last bool) (*system, error) {
	start := time.Now()
	var (
		sys *system
		err error
	)
	if b.w.durable() {
		sys, err = b.setupNode(i, last, start)
	} else {
		sys, err = b.setupCluster(ctx, last)
	}
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, b.client, sys.front); err != nil {
		sys.stop()
		return nil, err
	}
	end := time.Now()
	b.setups = append(b.setups, end.Sub(start).Seconds())
	if b.spans != nil {
		b.spans.add(span{ID: "setup" + strconv.Itoa(i), Name: "bench.setup", Start: start, End: end})
	}
	return sys, nil
}

func (b *bench) setupNode(i int, last bool, start time.Time) (*system, error) {
	reg := obs.NewRegistry()
	st, err := sbmlcompose.OpenCorpus(b.in.StoreDir, &sbmlcompose.StoreOptions{
		Corpus:            corpusOptions(),
		Metrics:           serve.NewStoreMetrics(reg),
		NoSnapshotOnClose: !last,
	})
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	b.opens = append(b.opens, opened.Sub(start).Seconds())
	b.recovery = st.Stats()
	if b.spans != nil {
		b.spans.add(span{ID: "open" + strconv.Itoa(i), Parent: "setup" + strconv.Itoa(i), Name: "store.open", Start: start, End: opened})
		if last {
			st.Corpus().SetPersister(timedPersister{next: st, spans: b.spans})
		}
	}
	hs, err := serveHTTP(serve.NewPersistent(st, serve.Config{Registry: reg, RequestTimeout: time.Minute}))
	if err != nil {
		st.Close()
		return nil, err
	}
	return &system{front: hs.url, nodes: []string{hs.url}, store: st, servers: []*httpServer{hs}}, nil
}

func (b *bench) setupCluster(ctx context.Context, last bool) (*system, error) {
	sys := &system{}
	for k := 0; k < b.w.Nodes; k++ {
		copts := corpusOptions()
		hs, err := serveHTTP(serve.New(sbmlcompose.NewCorpus(&copts), serve.Config{Registry: obs.NewRegistry(), RequestTimeout: time.Minute}))
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.servers = append(sys.servers, hs)
		sys.nodes = append(sys.nodes, hs.url)
	}
	opts := cluster.Options{Nodes: sys.nodes, Registry: obs.NewRegistry()}
	if b.spans != nil && last {
		// The gateway's default transport, with a span per node hop.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		opts.Client = &http.Client{Transport: timedTransport{next: tr, spans: b.spans}}
	}
	gw, err := cluster.New(opts)
	if err != nil {
		sys.stop()
		return nil, err
	}
	hs, err := serveHTTP(gw)
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.servers = append(sys.servers, hs)
	sys.front, sys.gateway = hs.url, hs.url
	if err := b.load(ctx, hs.url); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// load adds every model through the gateway, one loader per connection.
func (b *bench) load(ctx context.Context, base string) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, b.w.Conns)
	)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(b.in.Models) && errs[c] == nil; i = int(next.Add(1)) - 1 {
				errs[c] = post(ctx, b.client, base+"/v1/models", b.in.Models[i], http.StatusCreated)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func post(ctx context.Context, client *http.Client, url, body string, want int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, buf.Bytes())
	}
	return err
}

func waitHealthy(ctx context.Context, client *http.Client, base string) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		if attempt == 100 {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// templates builds one read-only request per distinct body, with its
// check against the answer computed at set-up; every client shares them.
func (b *bench) templates() {
	for _, h := range b.in.Hot {
		ref, planted := []byte(h.Ref), h.Planted
		b.hot = append(b.hot, request{op: opSearch, method: http.MethodPost, path: "/v1/search", body: []byte(h.Body),
			verify: func(body []byte) error {
				if !bytes.Equal(stripTook(body), ref) {
					return fmt.Errorf("answer for %s differs from the single-node reference", planted)
				}
				return nil
			}})
	}
	for _, body := range b.in.Compose {
		b.compose = append(b.compose, request{op: opCompose, method: http.MethodPost, path: "/v1/compose", body: []byte(body),
			verify: hasField(`"stats":`)})
	}
	for _, c := range b.in.Sims {
		b.sims = append(b.sims, request{op: opSimulate, method: http.MethodPost, path: "/v1/simulate", body: []byte(c.Body),
			verify: func(body []byte) error {
				var r struct {
					Times []float64 `json:"times"`
				}
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				if len(r.Times) != c.Points {
					return fmt.Errorf("trace has %d points, want %d", len(r.Times), c.Points)
				}
				return nil
			}})
	}
	for _, c := range b.in.Checks {
		b.checks = append(b.checks, request{op: opCheck, method: http.MethodPost, path: "/v1/check", body: []byte(c.Body),
			verify: func(body []byte) error {
				var r struct {
					Satisfied *bool `json:"satisfied"`
				}
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				if r.Satisfied == nil || *r.Satisfied != c.Satisfied {
					return fmt.Errorf("verdict differs from the set-up answer %v", c.Satisfied)
				}
				return nil
			}})
	}
	for _, body := range b.in.AddPool {
		b.addPool = append(b.addPool, []byte(body))
	}
	for _, body := range b.in.ColdPool {
		b.coldPool = append(b.coldPool, []byte(body))
	}
}

// next draws the next request of the workload's mix.
func (b *bench) next(p *picker) request {
	switch op := p.op(); op {
	case opSearch:
		return b.hot[p.hot()]
	case opCompose:
		return b.compose[p.rng.Intn(len(b.compose))]
	case opSimulate:
		return b.sims[p.rng.Intn(len(b.sims))]
	case opCheck:
		return b.checks[p.rng.Intn(len(b.checks))]
	case opCold:
		n := b.coldSeq.Add(1)
		body := bytes.ReplaceAll(b.coldPool[n%uint64(len(b.coldPool))], []byte(coldPlaceholder), []byte("cold"+strconv.FormatUint(n, 10)))
		return request{op: op, method: http.MethodPost, path: "/v1/search", body: body, verify: hasField(`"hits":`)}
	case opRemove:
		b.mu.Lock()
		if len(b.fifo) > 0 {
			id := b.fifo[0]
			b.fifo = b.fifo[1:]
			b.mu.Unlock()
			return request{op: op, method: http.MethodDelete, path: "/v1/models/" + id, key: "remove:" + id,
				acked: func() { b.ack(b.ackedRemoves, id, false) }}
		}
		b.mu.Unlock()
		return b.add()
	case opAdd:
		return b.add()
	default:
		panic("sbmlbench: unknown op " + op)
	}
}

func (b *bench) add() request {
	n := b.addSeq.Add(1)
	id := "fresh" + strconv.FormatUint(n, 10)
	return request{op: opAdd, method: http.MethodPost, path: "/v1/models?id=" + id,
		body: b.addPool[n%uint64(len(b.addPool))], key: "add:" + id,
		acked: func() { b.ack(b.ackedAdds, id, true) }}
}

func (b *bench) ack(set map[string]bool, id string, queue bool) {
	b.mu.Lock()
	set[id] = true
	if queue {
		b.fifo = append(b.fifo, id)
	}
	b.mu.Unlock()
}

func hasField(field string) func([]byte) error {
	return func(body []byte) error {
		if !bytes.Contains(body, []byte(field)) {
			return fmt.Errorf("response lacks %s", field)
		}
		return nil
	}
}

// warmup sends every distinct body once, then the workload's own mix
// closed-loop for the warm-up time, so caches and simulation engines are
// filled before anything is timed.
func (b *bench) warmup(ctx context.Context) *recorder {
	rec := newRecorder()
	for _, rq := range slices.Concat(b.hot, b.compose, b.sims, b.checks) {
		sent, done, err := b.gen.do(ctx, rq)
		rec.record(rq.op, done.Sub(sent), err)
	}
	loop, _ := closedLoop(ctx, b.gen, b.w, b.in.Seed^0x5eed, b.w.warmup(), b.next)
	rec.attempted += loop.attempted
	rec.failed += loop.failed
	if rec.firstErr == nil {
		rec.firstErr = loop.firstErr
	}
	return rec
}

// phase is one measured window.
type phase struct {
	rec   *recorder // every operation of a closed loop
	steps []step    // the open-loop ladder
	wall  time.Duration
	// node and gw are the /v1/metrics deltas over the window.
	node, gw scrape
	spans    []span
	rt       runtimeDelta
}

func (p *phase) recorders() []*recorder {
	if p.rec != nil {
		return []*recorder{p.rec}
	}
	var out []*recorder
	for _, s := range p.steps {
		out = append(out, s.rec)
	}
	return out
}

// latencyRec is the recorder latencies are reported from: the whole
// closed loop, or the middle rung of the ladder.
func (p *phase) latencyRec() *recorder {
	if p.rec != nil {
		return p.rec
	}
	return p.steps[len(p.steps)/2].rec
}

func (p *phase) ok() int64 {
	var n int64
	for _, r := range p.recorders() {
		n += r.ok()
	}
	return n
}

// measure runs one window of the workload's traffic, with spans recorded
// when traced, and takes the server-side deltas around it.
func (b *bench) measure(ctx context.Context, traced bool) (*phase, error) {
	nodeBefore, gwBefore, err := b.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	mark := b.spans.len()
	b.spans.setActive(traced)
	dur := time.Duration(b.in.Seconds * float64(time.Second))
	p := &phase{}
	// A second window on the same seed would replay the first one's
	// draws; the traced window gets its own.
	seed := b.in.Seed
	if traced {
		seed = ^seed
	}
	if b.w.openLoop() {
		p.steps, p.wall = openLoop(ctx, b.gen, b.w, seed, dur/time.Duration(len(b.w.RatesRPS)), b.next)
	} else {
		p.rec, p.wall = closedLoop(ctx, b.gen, b.w, seed, dur, b.next)
	}
	b.spans.setActive(false)
	p.rt = readRuntime().minus(rt0)
	nodeAfter, gwAfter, err := b.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p.node, p.gw = nodeAfter.minus(nodeBefore), gwAfter.minus(gwBefore)
	if traced {
		p.spans = b.spans.since(mark)
	}
	return p, nil
}

func (b *bench) scrape(ctx context.Context) (node, gw scrape, err error) {
	if node, err = scrapeAll(ctx, b.client, b.sys.nodes); err != nil {
		return nil, nil, err
	}
	if b.sys.gateway != "" {
		gw, err = scrapeMetrics(ctx, b.client, b.sys.gateway)
	}
	return node, gw, err
}

// checkRecovered reopens the closed store and compares its ids with the
// fixture plus every acknowledged add minus every acknowledged remove.
func (b *bench) checkRecovered() checkResult {
	c := checkResult{Name: "recovered ids equal fixture + acked adds - acked removes"}
	want := map[string]bool{}
	for _, id := range b.in.FixtureIDs {
		want[id] = true
	}
	for id := range b.ackedAdds {
		want[id] = true
	}
	for id := range b.ackedRemoves {
		delete(want, id)
	}
	st, err := sbmlcompose.OpenCorpus(b.in.StoreDir, &sbmlcompose.StoreOptions{Corpus: corpusOptions(), NoSnapshotOnClose: true})
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	got := st.Corpus().IDs()
	if err := st.Close(); err != nil {
		c.Detail = err.Error()
		return c
	}
	extra := 0
	for _, id := range got {
		if want[id] {
			delete(want, id)
		} else {
			extra++
		}
	}
	c.OK = len(want) == 0 && extra == 0
	if !c.OK {
		c.Detail = fmt.Sprintf("%d ids missing, %d unexpected", len(want), extra)
	}
	return c
}

// endToEnd computes the untraced window's end-to-end metrics.
func (b *bench) endToEnd(res *childResult, p *phase, rss float64) {
	res.put("setup_s", median(b.setups), len(b.setups))
	res.put("throughput_rps", float64(p.ok())/p.wall.Seconds(), int(p.ok()))
	lat := p.latencyRec()
	all := lat.all()
	res.put("latency_p50_ms", quantile(all, 0.5), len(all))
	res.put("latency_p99_ms", quantile(all, 0.99), len(all))
	searchOp := opSearch
	if b.w.Name == "ingest-churn" {
		searchOp = opCold
	}
	res.put("search_p50_ms", quantile(lat.lat[searchOp], 0.5), len(lat.lat[searchOp]))
	res.put("peak_rss_mb", rss, 0)
	switch b.w.Name {
	case "ingest-churn":
		res.put("add_p50_ms", quantile(lat.lat[opAdd], 0.5), len(lat.lat[opAdd]))
		res.put("add_p99_ms", quantile(lat.lat[opAdd], 0.99), len(lat.lat[opAdd]))
	case "mixed-open":
		for _, op := range []string{opCompose, opSimulate, opCheck} {
			res.put(op+"_p50_ms", quantile(lat.lat[op], 0.5), len(lat.lat[op]))
		}
		// The highest rate meeting the latency limit with no backlog.
		slo := 0.0
		for _, s := range p.steps {
			all := s.rec.all()
			r := rung{RateRPS: s.rate, P50Ms: quantile(all, 0.5), P99Ms: quantile(all, 0.99),
				Samples: len(all), Failed: s.rec.failed, BacklogEnd: s.backlog}
			res.Ladder = append(res.Ladder, r)
			if r.P99Ms <= sloP99Ms && r.BacklogEnd <= sloBacklog && r.Failed == 0 {
				slo = s.rate
			}
		}
		res.put("slo_rps", slo, 0)
	}
}

// The mixed-open latency limit: p99 within 25 ms and at most 2 requests
// outstanding when a rung ends.
const (
	sloP99Ms   = 25
	sloBacklog = 2
)

// layers computes the per-layer metrics: histogram and span figures from
// the traced window, runtime and generator figures from the untraced one.
func (b *bench) layers(res *childResult, up, tp *phase) {
	d := tp.node
	routes := []string{"add_model", "remove_model", "search", "compose", "simulate", "check"}
	var handlerSum, handlerN float64
	for _, r := range routes {
		handlerSum += d.total("sbmlserved_http_request_seconds_sum", `route="`+r+`"`)
		handlerN += d.total("sbmlserved_http_request_seconds_count", `route="`+r+`"`)
	}
	perReq := func(seconds float64) float64 {
		if handlerN == 0 {
			return 0
		}
		return seconds * 1e3 / handlerN
	}
	n := int(handlerN)
	stage := func(name string) float64 { return d.total("sbmlserved_stage_seconds_sum", `stage="`+name+`"`) }

	res.Stages = map[string]stageDelta{}
	var stageSum float64
	for _, k := range d.stageNames() {
		sum := stage(k)
		stageSum += sum
		res.Stages[k] = stageDelta{Count: d.total("sbmlserved_stage_seconds_count", `stage="`+k+`"`), SumMs: sum * 1e3}
	}
	var appends []float64
	var appendSum float64
	for _, s := range tp.spans {
		if strings.HasPrefix(s.Name, "store.persist_") {
			ms := float64(s.End.Sub(s.Start).Nanoseconds()) / 1e6
			appends = append(appends, ms)
			appendSum += ms / 1e3
		}
	}
	res.put("serve.handler_ms", perReq(handlerSum), n)
	res.put("serve.decode_ms", perReq(stage("decode")), n)
	res.put("serve.cache_lookup_ms", perReq(stage("cache_lookup")), n)
	res.put("serve.unattributed_ms", perReq(handlerSum-stageSum), n)
	searches := d.total("sbmlserved_http_requests_total", `route="search"`)
	res.put("serve.query_cache_hit_ratio", ratio(d.total("sbmlserved_query_cache_hits_total"), searches), int(searches))
	res.put("sbml.parse_ms", perReq(stage("parse")), n)
	res.put("core.compile_ms", perReq(stage("compile")), n)
	res.put("core.compose_ms", perReq(stage("compose")), n)
	res.put("corpus.retrieve_ms", perReq(stage("retrieve")), n)
	res.put("corpus.score_ms", perReq(stage("score")), n)
	res.put("corpus.merge_ms", perReq(stage("merge")), n)
	res.put("corpus.add_self_ms", perReq(stage("persist")-appendSum), n)
	res.put("store.append_ms", perReq(appendSum), n)
	res.put("store.append_p99_ms", quantile(appends, 0.99), len(appends))
	res.put("store.fsync_ms", perReq(d.total("sbmlstore_wal_fsync_seconds_sum")), n)
	res.put("store.fsyncs_per_record", ratio(d.total("sbmlstore_wal_fsync_seconds_count"), d.total("sbmlstore_wal_append_seconds_count")), 0)
	snaps := d.total("sbmlstore_snapshot_seconds_count")
	res.put("store.snapshots", d.total("sbmlstore_snapshots_total"), 0)
	res.put("store.snapshot_ms", ratio(d.total("sbmlstore_snapshot_seconds_sum")*1e3, snaps), int(snaps))
	res.put("store.recovery_s", median(b.opens), len(b.opens))
	res.put("store.recovery_wal_records", float64(b.recovery.WALRecords), 0)
	res.put("store.recovery_precompiled", float64(b.recovery.SnapshotPrecompiled), 0)
	res.put("sim.simulate_ms", perReq(stage("simulate")), n)
	res.put("mc2.check_ms", perReq(stage("check")), n)

	// Client spans against the front handler: the node, or the gateway.
	var client []float64
	hops := map[string][]float64{}
	var hopAll []float64
	for _, s := range tp.spans {
		ms := float64(s.End.Sub(s.Start).Nanoseconds()) / 1e6
		switch s.Name {
		case "bench.request":
			client = append(client, ms)
		case "cluster.node_hop":
			hops[s.Parent] = append(hops[s.Parent], ms)
			hopAll = append(hopAll, ms)
		}
	}
	front := perReq(handlerSum)
	gwSearches := tp.gw.total("sbmlgw_http_requests_total", `route="search"`)
	if b.sys.gateway != "" {
		front = ratio(tp.gw.total("sbmlgw_http_request_seconds_sum", `route="search"`)*1e3, gwSearches)
	}
	res.put("serve.transport_ms", mean(client)-front, len(client))
	var slowest []float64
	for _, parent := range sortedKeys(hops) {
		slowest = append(slowest, slices.Max(hops[parent]))
	}
	res.put("cluster.node_hop_ms", mean(hopAll), len(hopAll))
	res.put("cluster.node_hop_p99_ms", quantile(hopAll, 0.99), len(hopAll))
	res.put("cluster.slowest_hop_ms", mean(slowest), len(slowest))
	gwSelf := 0.0
	if b.sys.gateway != "" {
		gwSelf = front - mean(slowest)
	}
	res.put("cluster.gateway_self_ms", gwSelf, len(slowest))
	res.put("cluster.node_requests_per_search", ratio(tp.gw.total("sbmlgw_node_requests_total"), gwSearches), int(gwSearches))
	res.put("cluster.node_retries", tp.gw.total("sbmlgw_node_errors_total"), 0)

	ops := float64(up.ok())
	res.put("runtime.alloc_bytes_per_op", ratio(up.rt.allocBytes, ops), int(ops))
	res.put("runtime.allocs_per_op", ratio(up.rt.allocs, ops), int(ops))
	res.put("runtime.gc_cpu_frac", ratio(up.rt.gcCPU, up.rt.totalCPU), 0)
	var lags []float64
	backlog := 0.0
	if len(up.steps) > 0 {
		for _, s := range up.steps {
			lags = append(lags, s.lags...)
		}
		backlog = float64(up.steps[len(up.steps)/2].backlog)
	}
	res.put("bench.dispatch_lag_p99_ms", quantile(lags, 0.99), len(lags))
	res.put("bench.backlog_end", backlog, 0)
	upAll, tpAll := up.latencyRec().all(), tp.latencyRec().all()
	res.put("bench.trace_overhead_frac", ratio(mean(tpAll), mean(upAll))-1, len(tpAll))

	res.SelfTimeMs = map[string]float64{}
	for name, ms := range selfTime(tp.spans) {
		res.SelfTimeMs[name] = ratio(ms, float64(len(client)))
	}
}

// stageNames lists the stage labels present in a scrape, sorted.
func (s scrape) stageNames() []string {
	const prefix = `sbmlserved_stage_seconds_count{stage="`
	var names []string
	for k := range s {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			names = append(names, strings.TrimSuffix(rest, `"}`))
		}
	}
	sort.Strings(names)
	return names
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeDelta is the allocation and CPU accounting of one window.
type runtimeDelta struct {
	allocBytes, allocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: float64(ms.TotalAlloc),
		allocs:     float64(ms.Mallocs),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

func (r runtimeDelta) minus(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocBytes - o.allocBytes, r.allocs - o.allocs, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}

// liveHeapMB runs a full collection and returns the heap it marked live,
// in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// procStatusMB reads a memory field of /proc/self/status ("VmHWM:" is
// the peak resident set, "VmRSS:" the current one) in MB, or the Go
// runtime's total OS memory where /proc is unavailable.
func procStatusMB(field string) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, field); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
