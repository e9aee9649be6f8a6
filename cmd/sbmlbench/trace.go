package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbmlcompose/internal/corpus"
)

// span is one timed interval of the traced run. Parent is a span id; a
// store persist span leaves it empty and names the request that caused
// it through key instead, resolved when the run ends.
type span struct {
	ID     string
	Parent string
	Name   string
	Start  time.Time
	End    time.Time
	Attr   string
	key    string
}

// spanLog keeps spans in memory while recording is on. A nil *spanLog
// records nothing, which is what an untraced run passes around.
type spanLog struct {
	t0  time.Time
	on  atomic.Bool
	seq atomic.Uint64

	mu    sync.Mutex
	spans []span
	// byKey maps "add:<id>"/"remove:<id>" to the request that carried it.
	byKey map[string]string
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), byKey: map[string]string{}}
}

func (l *spanLog) active() bool { return l != nil && l.on.Load() }

func (l *spanLog) setActive(on bool) {
	if l != nil {
		l.on.Store(on)
	}
}

func (l *spanLog) newID(prefix string) string {
	return prefix + strconv.FormatUint(l.seq.Add(1), 10)
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) bind(key, requestID string) {
	l.mu.Lock()
	l.byKey[key] = requestID
	l.mu.Unlock()
}

// since returns the spans recorded from index i on, with keyed parents
// resolved.
func (l *spanLog) since(i int) []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]span(nil), l.spans[i:]...)
	for j := range out {
		if out[j].Parent == "" && out[j].key != "" {
			out[j].Parent = l.byKey[out[j].key]
		}
	}
	return out
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// unresolved counts spans whose parent is missing or names no span.
func unresolved(spans []span) int {
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	n := 0
	for _, s := range spans {
		if (s.Parent != "" && !ids[s.Parent]) || (s.Parent == "" && !rootSpan(s.Name)) {
			n++
		}
	}
	return n
}

func rootSpan(name string) bool { return name == "bench.request" || name == "bench.setup" }

// selfTime sums each span name's self time in ms: its duration minus the
// union of its children's intervals (node hops run in parallel, so the
// union, not the sum, is what the parent waited on).
func selfTime(spans []span) map[string]float64 {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		var curStart, curEnd time.Time
		for _, k := range kids {
			ks, ke := laterOf(k.Start, s.Start), earlierOf(k.End, s.End)
			if !ke.After(ks) {
				continue
			}
			if curEnd.IsZero() || ks.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = ks, ke
			} else if ke.After(curEnd) {
				curEnd = ke
			}
		}
		covered += curEnd.Sub(curStart)
		out[s.Name] += float64((s.End.Sub(s.Start) - covered).Nanoseconds()) / 1e6
	}
	return out
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlierOf(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// writeSpans writes spans as JSON lines, times in ns since the log began.
func (l *spanLog) writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID      string `json:"id"`
			Parent  string `json:"parent,omitempty"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Attr    string `json:"attr,omitempty"`
		}{s.ID, s.Parent, s.Name, s.Start.Sub(l.t0).Nanoseconds(), s.End.Sub(l.t0).Nanoseconds(), s.Attr}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedPersister wraps the store as the corpus's Persister and records a
// span per WAL append, keyed by the model id its request carried.
type timedPersister struct {
	next  corpus.Persister
	spans *spanLog
}

func (p timedPersister) PersistAdd(id string, sbmlBytes []byte) error {
	return p.time("store.persist_add", "add:"+id, func() error { return p.next.PersistAdd(id, sbmlBytes) })
}

func (p timedPersister) PersistRemove(id string) error {
	return p.time("store.persist_remove", "remove:"+id, func() error { return p.next.PersistRemove(id) })
}

func (p timedPersister) time(name, key string, f func() error) error {
	if !p.spans.active() {
		return f()
	}
	start := time.Now()
	err := f()
	p.spans.add(span{ID: p.spans.newID("p"), Name: name, Start: start, End: time.Now(), key: key})
	return err
}

// timedTransport is the gateway's node client transport: a span per node
// round trip, parented by the X-Request-Id the gateway forwards, ending
// when the gateway closes the response body.
type timedTransport struct {
	next  http.RoundTripper
	spans *spanLog
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.spans.active() {
		return t.next.RoundTrip(req)
	}
	s := span{ID: t.spans.newID("h"), Parent: req.Header.Get("X-Request-Id"), Name: "cluster.node_hop", Start: time.Now(), Attr: req.URL.Host}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = time.Now()
		t.spans.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
		s.End = time.Now()
		t.spans.add(s)
	}}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// scrape is one /v1/metrics exposition: series (name plus label set) to
// value, histogram buckets left out — only _sum and _count are exact.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, client *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line[:i], "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", base, line, err)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// scrapeAll sums the expositions of several nodes series by series.
func scrapeAll(ctx context.Context, client *http.Client, bases []string) (scrape, error) {
	out := scrape{}
	for _, b := range bases {
		s, err := scrapeMetrics(ctx, client, b)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			out[k] += v
		}
	}
	return out, nil
}

// minus returns s − before, series by series.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// total sums the series named name whose label set contains every label
// (each written `key="value"`).
func (s scrape) total(name string, labels ...string) float64 {
	var sum float64
	for k, v := range s {
		n, ls, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(ls, l) {
				match = false
				break
			}
		}
		if match {
			sum += v
		}
	}
	return sum
}
