package main

import (
	"fmt"
	"io"
	"slices"
)

// runFile is what -out writes and -compare reads.
type runFile struct {
	Header    header        `json:"header"`
	Workloads []workloadRun `json:"workloads"`
}

// reported is one metric as the run file records it.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples,omitempty"`
	// Kind is "end_to_end" or "per_layer".
	Kind  string `json:"kind"`
	Moves string `json:"moves,omitempty"`
}

type workloadRun struct {
	Workload   workload              `json:"workload"`
	Traced     bool                  `json:"traced"`
	Correct    bool                  `json:"correct"`
	Attempted  int64                 `json:"attempted"`
	Failed     int64                 `json:"failed"`
	Checks     []checkResult         `json:"checks"`
	Metrics    map[string]reported   `json:"metrics"`
	SelfTimeMs map[string]float64    `json:"self_time_ms,omitempty"`
	Stages     map[string]stageDelta `json:"stages,omitempty"`
	Spans      int                   `json:"spans,omitempty"`
	Ladder     []rung                `json:"ladder,omitempty"`
}

// metricsOf lists the metrics a workload reports, in print order: its
// end-to-end metrics untraced, BENCHMARK.json's per-layer list traced.
func metricsOf(w workload, traced bool) []metricDef {
	if traced {
		return layerList()
	}
	return slices.Concat(endToEnd, unsteady, workloadEndToEnd[w.Name], []metricDef{failedFrac})
}

// layerList is BENCHMARK.json's per_layer list.
func layerList() []metricDef { return slices.Concat(unsteady, perLayer) }

func unitOf(name string) string {
	defs := slices.Concat(endToEnd, unsteady, perLayer, []metricDef{failedFrac})
	for _, name := range sortedKeys(workloadEndToEnd) {
		defs = append(defs, workloadEndToEnd[name]...)
	}
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("sbmlbench: metric " + name + " is not in the catalog")
}

func newWorkloadRun(w workload, res *childResult, traced bool) workloadRun {
	wr := workloadRun{
		Workload:   w,
		Traced:     traced,
		Attempted:  res.Attempted,
		Failed:     res.Failed,
		Checks:     res.Checks,
		Metrics:    map[string]reported{},
		SelfTimeMs: res.SelfTimeMs,
		Stages:     res.Stages,
		Spans:      res.Spans,
		Ladder:     res.Ladder,
	}
	wr.Correct = res.Failed == 0
	for _, c := range res.Checks {
		wr.Correct = wr.Correct && c.OK
	}
	kind := "end_to_end"
	if traced {
		kind = "per_layer"
	}
	for _, d := range metricsOf(w, traced) {
		if v, ok := res.Metrics[d.Name]; ok {
			wr.Metrics[d.Name] = reported{Value: v.Value, Unit: d.Unit, Better: d.Better, Samples: v.Samples, Kind: kind, Moves: d.Moves}
		}
	}
	return wr
}

// print writes one line per metric, then the checks, and for a traced
// run the self time and stage deltas per request.
func (wr workloadRun) print(out io.Writer) {
	name := wr.Workload.Name
	for _, d := range metricsOf(wr.Workload, wr.Traced) {
		m, ok := wr.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-15s %-34s %14.6g %-6s", name, d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Fprintln(out, line)
	}
	for _, r := range wr.Ladder {
		fmt.Fprintf(out, "%-15s rung %7.0f req/s: p50 %.4g ms, p99 %.4g ms, n=%d, failed %d, backlog at end %d\n",
			name, r.RateRPS, r.P50Ms, r.P99Ms, r.Samples, r.Failed, r.BacklogEnd)
	}
	for _, k := range sortedKeys(wr.SelfTimeMs) {
		fmt.Fprintf(out, "%-15s self %-29s %14.6g ms/request\n", name, k, wr.SelfTimeMs[k])
	}
	for _, k := range sortedKeys(wr.Stages) {
		s := wr.Stages[k]
		fmt.Fprintf(out, "%-15s stage %-28s %14.6g ms over %g observations\n", name, k, s.SumMs, s.Count)
	}
	for _, c := range wr.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(out, "%-15s check %s: %s\n", name, c.Name, verdict)
	}
	fmt.Fprintf(out, "%-15s attempted %d, failed %d\n", name, wr.Attempted, wr.Failed)
}

// summary is the one-line result: correct, attempted, failed and the
// BENCHMARK.json metrics of the mode (end-to-end untraced, per-layer
// traced). With several workloads, names are prefixed "workload/".
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rf runFile) summary(traced bool) summary {
	s := summary{Correct: true, Metrics: map[string]summaryMetric{}}
	defs := endToEnd
	if traced {
		defs = layerList()
	}
	for _, wr := range rf.Workloads {
		s.Correct = s.Correct && wr.Correct
		s.Attempted += wr.Attempted
		s.Failed += wr.Failed
		for _, d := range defs {
			key := d.Name
			if len(rf.Workloads) > 1 {
				key = wr.Workload.Name + "/" + d.Name
			}
			if m, ok := wr.Metrics[d.Name]; ok {
				s.Metrics[key] = summaryMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	return s
}
