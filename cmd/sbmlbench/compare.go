package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runCompare prints, for every workload and end-to-end metric in the run
// files, both sides' median and quartiles, the delta, the pair-win share
// and a verdict against the BENCHMARK.json bounds.
func runCompare(args []string, benchPath string, stdout, stderr io.Writer) int {
	i := slices.Index(args, "--")
	if i <= 0 || i == len(args)-1 {
		fmt.Fprintln(stderr, "sbmlbench: usage: -compare A.json... -- B.json...")
		return 2
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "sbmlbench: %v\n", err)
		return 1
	}
	a, err := readRuns(args[:i])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRuns(args[i+1:]); err == nil {
			printComparison(stdout, a, b, bounds)
			return 0
		}
	}
	fmt.Fprintf(stderr, "sbmlbench: %v\n", err)
	return 1
}

func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// readRuns collects each workload's end-to-end metric values, one per
// run file, in argument order.
func readRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, wr := range rf.Workloads {
			byName := out[wr.Workload.Name]
			if byName == nil {
				byName = map[string][]float64{}
				out[wr.Workload.Name] = byName
			}
			for _, d := range metricsOf(wr.Workload, false) {
				if m, ok := wr.Metrics[d.Name]; ok && m.Kind == "end_to_end" {
					byName[d.Name] = append(byName[d.Name], m.Value)
				}
			}
		}
	}
	return out, nil
}

func printComparison(out io.Writer, a, b map[string]map[string][]float64, bounds map[string]float64) {
	fmt.Fprintf(out, "%-15s %-16s %-30s %-30s %8s %5s %6s %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "win", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range metricsOf(w, false) {
			av, bv := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			bound, ok := bounds[d.Name]
			if !ok {
				bound = defaultBound
			}
			c := compareMetric(av, bv, d.Better == "higher", bound, d.Name == failedFrac.Name)
			fmt.Fprintf(out, "%-15s %-16s %-30s %-30s %+7.1f%% %5.2f %5.0f%% %s\n",
				w.Name, d.Name, quartileText(av), quartileText(bv), 100*c.delta, c.win, 100*bound, c.verdict)
		}
	}
}

func quartileText(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// comparison is the verdict on one workload and metric.
type comparison struct {
	// delta is B's median over A's, minus 1; win the share of index
	// pairs (A[i], B[i]) where B is strictly better.
	delta, win float64
	verdict    string
}

// compareMetric judges B against A. Worse is relative to the bound,
// except for an absolute metric (failed_frac), where any rise is worse.
// Where the run-to-run spread exceeds the bound the metric is
// unresolved, unless every B run beats every A run.
func compareMetric(a, b []float64, higherBetter bool, bound float64, absolute bool) comparison {
	q1a, meda, q3a := quartiles(a)
	q1b, medb, q3b := quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c := comparison{delta: ratio(medb, meda) - 1}
	if meda == 0 && medb == 0 {
		c.delta = 0
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	c.win = float64(wins) / float64(pairs)
	allBetter := better(extreme(b, !higherBetter), extreme(a, higherBetter))
	worseBy := c.delta
	if higherBetter {
		worseBy = -c.delta
	}
	spread := math.Max(ratio(q3a-q1a, meda), ratio(q3b-q1b, medb))
	switch {
	case absolute && medb > meda:
		c.verdict = "worse"
	case absolute:
		c.verdict = "within-bound"
	case spread > bound && allBetter:
		c.verdict = "better"
	case spread > bound:
		c.verdict = "unresolved"
	case worseBy > bound:
		c.verdict = "worse"
	case better(medb, meda) && c.win >= 0.9 && math.Abs(medb-meda) > q3a-q1a:
		c.verdict = "better"
	default:
		c.verdict = "within-bound"
	}
	return c
}

// extreme returns the largest value when largest, else the smallest.
func extreme(v []float64, largest bool) float64 {
	if largest {
		return slices.Max(v)
	}
	return slices.Min(v)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(n=4) and statistics.median compute
// them, so these numbers match any script checking the same runs.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	med = median(s)
	n := len(s)
	if n < 2 {
		return med, med, med
	}
	// statistics.quantiles, method "exclusive": position i*(n+1)/4,
	// interpolated between its neighbours, clamped to [1, n-1].
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
