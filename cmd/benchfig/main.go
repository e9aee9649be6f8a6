// Command benchfig converts `go test -bench -benchmem` output on stdin
// into a commit-stamped BENCH_*.json snapshot:
//
//	go test -run '^$' -bench . -benchmem -cpu 1 -count 5 ./internal/core |
//	    go run ./cmd/benchfig -out BENCH_compose.json
//
// Each BENCH file is one package set's benchmarks: BENCH_compose.json is
// ./internal/core, BENCH_sim.json ./internal/sim ./internal/mc2,
// BENCH_corpus.json ./internal/corpus, BENCH_store.json ./internal/store,
// and BENCH_paper.json the root package's -bench '^BenchmarkFigure' rows,
// the paper's Figure 8 and 9 sweeps. A row is named as its benchmark
// without the "Benchmark" prefix and the "-N" GOMAXPROCS suffix, which
// goes to the header with the commit, dirty flag, Go version and
// source_sha256, a hash of the tracked Go sources and go.mod as they
// stood when the file was written (see sourceHash). The rows a go test
// -count N run prints for one name fold into one row of medians that
// records N as its runs. A commit stamp cannot name the commit that adds
// the file; the source hash can be compared with any later tree.
// Serving-level load is measured by cmd/sbmlbench.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	outPath := flag.String("out", "", "BENCH_*.json file to write")
	flag.Parse()
	if *outPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchfig -out f.json < go-test-bench-output")
		os.Exit(2)
	}
	if err := writeJSON(os.Stdin, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

// benchResult is one benchmark row of the JSON report.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// LiveHeapMB, on rows that measure it, is the live heap the operation
	// leaves behind: the heap marked live by a full collection with its
	// result still held, less the heap before it ran.
	LiveHeapMB float64 `json:"live_heap_mb,omitempty"`
	// Metrics holds any other b.ReportMetric units by name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs counts the runs the row folds (go test -count); every value
	// above is their median.
	Runs int `json:"runs"`
}

// benchReport is the BENCH_*.json schema.
type benchReport struct {
	Commit       string        `json:"commit"`
	Dirty        bool          `json:"dirty"`
	SourceSHA256 string        `json:"source_sha256,omitempty"` // see sourceStamp
	GoVersion    string        `json:"go_version"`
	GoMaxProcs   int           `json:"go_maxprocs"`
	Unix         int64         `json:"generated_unix"`
	Results      []benchResult `json:"results"`
}

// parseBench reads go test -bench -benchmem output. It refuses output
// with a FAIL line or a package without its ok line, so a broken run
// never becomes a snapshot. The rows go test -count N prints for one name
// fold into one (see fold).
func parseBench(in io.Reader) (*benchReport, error) {
	rep := &benchReport{GoMaxProcs: -1}
	var pkgs []string
	ok := map[string]bool{}
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL"):
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		case f[0] == "pkg:" && len(f) == 2:
			pkgs = append(pkgs, f[1])
		case f[0] == "ok" && len(f) >= 2:
			ok[f[1]] = true
		case strings.HasPrefix(f[0], "Benchmark") && len(f) >= 4 && len(f)%2 == 0:
			r, procs, err := parseRow(f)
			if err != nil {
				return nil, fmt.Errorf("%w in %q", err, line)
			}
			if rep.GoMaxProcs >= 0 && procs != rep.GoMaxProcs {
				return nil, fmt.Errorf("rows ran at GOMAXPROCS %d and %d; convert one -cpu value per file", rep.GoMaxProcs, procs)
			}
			rep.GoMaxProcs = procs
			rep.Results = append(rep.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pkgs) == 0 || len(rep.Results) == 0 {
		return nil, errors.New("no benchmark rows on stdin")
	}
	for _, p := range pkgs {
		if !ok[p] {
			return nil, fmt.Errorf("package %s has no ok line", p)
		}
	}
	rep.Results = fold(rep.Results)
	return rep, nil
}

// fold merges the rows of each name into one, in the order names first
// appear: each value is the median over the name's rows, and Runs counts
// them. A metric unit is the median over the rows that report it.
func fold(rows []benchResult) []benchResult {
	var names []string
	byName := map[string][]benchResult{}
	for _, r := range rows {
		if _, seen := byName[r.Name]; !seen {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]benchResult, len(names))
	for i, name := range names {
		runs := byName[name]
		med := func(v func(benchResult) float64) float64 {
			xs := make([]float64, len(runs))
			for j, r := range runs {
				xs[j] = v(r)
			}
			return median(xs)
		}
		r := benchResult{
			Name:        name,
			Iterations:  int(math.Round(med(func(r benchResult) float64 { return float64(r.Iterations) }))),
			NsPerOp:     med(func(r benchResult) float64 { return r.NsPerOp }),
			AllocsPerOp: int64(math.Round(med(func(r benchResult) float64 { return float64(r.AllocsPerOp) }))),
			BytesPerOp:  int64(math.Round(med(func(r benchResult) float64 { return float64(r.BytesPerOp) }))),
			LiveHeapMB:  med(func(r benchResult) float64 { return r.LiveHeapMB }),
			Runs:        len(runs),
		}
		for _, run := range runs {
			for unit := range run.Metrics {
				if _, done := r.Metrics[unit]; done {
					continue
				}
				var xs []float64
				for _, o := range runs {
					if x, ok := o.Metrics[unit]; ok {
						xs = append(xs, x)
					}
				}
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = median(xs)
			}
		}
		out[i] = r
	}
	return out
}

// median returns the median of xs, the mean of the middle two for an
// even count; xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseRow parses one result line: name, iterations, then value-unit
// pairs. The name's "-N" suffix is the GOMAXPROCS it ran at; without
// one, testing ran it at 1.
func parseRow(f []string) (benchResult, int, error) {
	name, procs := strings.TrimPrefix(f[0], "Benchmark"), 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			name, procs = name[:i], n
		}
	}
	r := benchResult{Name: name}
	var err error
	if r.Iterations, err = strconv.Atoi(f[1]); err != nil {
		return r, 0, err
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return r, 0, err
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "live_heap_mb":
			r.LiveHeapMB = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, procs, nil
}

// writeJSON converts the benchmark text on in and writes it to outPath
// through a sibling temp file and a rename, so a refused or interrupted
// conversion leaves an existing snapshot untouched.
func writeJSON(in io.Reader, outPath string) error {
	rep, err := parseBench(in)
	if err != nil {
		return err
	}
	rep.Commit, rep.Dirty = commitStamp()
	if rep.SourceSHA256, err = sourceStamp(); err != nil {
		return err
	}
	rep.GoVersion = runtime.Version()
	rep.Unix = time.Now().Unix()
	f, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after the rename
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), outPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d results to %s\n", len(rep.Results), outPath)
	return nil
}

// commitStamp asks git for the checkout's commit and whether its tree
// differs from it; "unknown" outside a repository.
func commitStamp() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

// sourceStamp is sourceHash over the checkout's tracked *.go files and
// go.mod; empty outside a git checkout.
func sourceStamp() (string, error) {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "", nil
	}
	root := strings.TrimSpace(string(top))
	ls := exec.Command("git", "ls-files", "-z", "--", "*.go", "go.mod")
	ls.Dir = root
	out, err := ls.Output()
	if err != nil {
		return "", err
	}
	return sourceHash(root, strings.Split(strings.TrimRight(string(out), "\x00"), "\x00"))
}

// sourceHash is the SHA-256 over the named files under root, taken in
// sorted path order so the listing order does not matter: for each file
// its slash-separated path, a NUL byte, then its contents.
func sourceHash(root string, paths []string) (string, error) {
	paths = append([]string(nil), paths...)
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(p)))
		if err != nil {
			return "", err
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
