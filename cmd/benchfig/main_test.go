package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const benchText = `goos: linux
pkg: sbmlcompose/internal/store
BenchmarkWALAppend/fsync=never-2         	   60398	     17000 ns/op	   19000 B/op	       6 allocs/op
BenchmarkStoreRecovery/models=1000/source=wal-2 	      12	 113560977 ns/op	         4.974 live_heap_mb	54062024 B/op	  329233 allocs/op
PASS
ok  	sbmlcompose/internal/store	6.291s
pkg: sbmlcompose/internal/corpus
BenchmarkInstall-2   	       1	  24344333 ns/op	      4906 live-B/model	 6909888 B/op	   40297 allocs/op
PASS
ok  	sbmlcompose/internal/corpus	1.331s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2 from the -2 suffix", rep.GoMaxProcs)
	}
	want := []benchResult{
		{Name: "WALAppend/fsync=never", Iterations: 60398, NsPerOp: 17000, BytesPerOp: 19000, AllocsPerOp: 6},
		{Name: "StoreRecovery/models=1000/source=wal", Iterations: 12, NsPerOp: 113560977, BytesPerOp: 54062024, AllocsPerOp: 329233, LiveHeapMB: 4.974},
		{Name: "Install", Iterations: 1, NsPerOp: 24344333, BytesPerOp: 6909888, AllocsPerOp: 40297, Metrics: map[string]float64{"live-B/model": 4906}},
	}
	if !reflect.DeepEqual(rep.Results, want) {
		t.Errorf("rows:\n got %+v\nwant %+v", rep.Results, want)
	}

	one, err := parseBench(strings.NewReader("pkg: p\nBenchmarkX 5 10 ns/op\nok  \tp\t1s\n"))
	if err != nil || one.GoMaxProcs != 1 {
		t.Errorf("unsuffixed row: GOMAXPROCS %v, err %v; want 1", one, err)
	}
}

func TestWriteJSONRefusesBrokenRuns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(out, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"fail line":     strings.Replace(benchText, "PASS\nok  \tsbmlcompose/internal/store", "--- FAIL: BenchmarkX\nFAIL\tsbmlcompose/internal/store", 1),
		"missing ok":    strings.Replace(benchText, "ok  \tsbmlcompose/internal/corpus\t1.331s\n", "", 1),
		"mixed procs":   benchText + "pkg: q\nBenchmarkY-4 1 1 ns/op\nok  \tq\t1s\n",
		"no benchmarks": "PASS\n",
	} {
		if err := writeJSON(strings.NewReader(in), out); err == nil {
			t.Errorf("%s: converted", name)
		}
	}
	if b, _ := os.ReadFile(out); string(b) != "kept" {
		t.Errorf("a refused conversion replaced the file: %q", b)
	}
	if err := writeJSON(strings.NewReader(benchText), out); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(out); !strings.Contains(string(b), `"commit"`) || !strings.Contains(string(b), `"live-B/model": 4906`) {
		t.Errorf("converted file lacks its header or metrics:\n%s", b)
	}
}

func TestSourceHash(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{"go.mod": "module m\n", "a.go": "package a\n", "sub/b.go": "package b\n"}
	for p, body := range files {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(p)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, p), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h1, err := sourceHash(root, []string{"sub/b.go", "go.mod", "a.go"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sourceHash(root, []string{"a.go", "go.mod", "sub/b.go"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash depends on listing order: %s vs %s", h1, h2)
	}
	if err := os.WriteFile(filepath.Join(root, "sub/b.go"), []byte("package c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h3, err := sourceHash(root, []string{"a.go", "go.mod", "sub/b.go"})
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash unchanged after a one-byte edit")
	}
	if _, err := sourceHash(root, []string{"missing.go"}); err == nil {
		t.Error("hashed a missing file")
	}
}
