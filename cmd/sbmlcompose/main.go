// Command sbmlcompose merges two or more SBML models without user
// interaction, writing the composed model to stdout or a file and conflict
// warnings to a log.
//
// Usage:
//
//	sbmlcompose [flags] model1.xml model2.xml [model3.xml ...]
//
// Flags:
//
//	-o file        output file (default stdout)
//	-log file      warnings log (default stderr)
//	-semantics s   heavy | light | none (default heavy)
//	-synonyms file extra synonym classes, one per line, tab-separated
//	-index s       hash | linear | sorted | suffixtree (default hash)
//	-stats         print merge statistics to stderr
//
// The models are streamed through an incremental Composer: each file is
// parsed and folded into one persistent compiled accumulator, so only one
// input model is resident at a time.
//
// Ctrl-C (SIGINT) or SIGTERM cancels the in-flight composition at its
// next loop-granular check, prints partial progress statistics to stderr,
// and exits nonzero without writing a truncated output file; a second
// signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/index"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal has cancelled ctx, restore the default
	// disposition so a second Ctrl-C kills the process immediately
	// instead of being swallowed by the still-registered handler.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sbmlcompose:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		outPath   = flag.String("o", "", "output file (default stdout)")
		logPath   = flag.String("log", "", "warnings log file (default stderr)")
		semantics = flag.String("semantics", "heavy", "matching depth: heavy | light | none")
		synPath   = flag.String("synonyms", "", "extra synonym table file")
		indexKind = flag.String("index", "hash", "component index: hash | linear | sorted | suffixtree")
		stats     = flag.Bool("stats", false, "print merge statistics to stderr")
	)
	flag.Parse()
	if flag.NArg() < 2 {
		return fmt.Errorf("need at least two model files, got %d", flag.NArg())
	}

	opts := sbmlcompose.Options{}
	switch *semantics {
	case "heavy":
		opts.Semantics = core.HeavySemantics
	case "light":
		opts.Semantics = core.LightSemantics
	case "none":
		opts.Semantics = core.NoSemantics
	default:
		return fmt.Errorf("unknown semantics level %q", *semantics)
	}
	switch *indexKind {
	case "hash":
		opts.Index = index.Hash
	case "linear":
		opts.Index = index.Linear
	case "sorted":
		opts.Index = index.Sorted
	case "suffixtree":
		opts.Index = index.SuffixTree
	default:
		return fmt.Errorf("unknown index kind %q", *indexKind)
	}

	tab := sbmlcompose.BuiltinSynonyms()
	if *synPath != "" {
		f, err := os.Open(*synPath)
		if err != nil {
			return err
		}
		err = tab.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	opts.Synonyms = tab

	var logW io.Writer = os.Stderr
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		logW = f
	}
	opts.Log = logW

	start := time.Now()
	// A cancelled run reports what it got through before the signal — the
	// point of signal-aware cancellation is dying informatively instead of
	// mid-write.
	folded := 0
	cli := sbmlcompose.New(sbmlcompose.WithMatchOptions(opts))
	// Stream: parse and fold one file at a time into the compiled
	// accumulator.
	comp := cli.NewComposer()
	for _, path := range flag.Args() {
		m, err := sbmlcompose.ParseModelFile(path)
		if err != nil {
			return err
		}
		if err := comp.Add(ctx, m); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "sbmlcompose: cancelled mid-fold after folding %d/%d models in %s; no output written\n",
					folded, flag.NArg(), time.Since(start).Round(time.Millisecond))
			}
			return err
		}
		folded++
	}
	res := comp.Result()
	if err := sbmlcompose.Validate(res.Model); err != nil {
		fmt.Fprintf(logW, "warning: composed model failed validation: %v\n", err)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := sbmlcompose.WriteModel(res.Model, out); err != nil {
		return err
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "merged=%d added=%d renamed=%d conflicts=%d warnings=%d duration=%s\n",
			res.Stats.Merged, res.Stats.Added, res.Stats.Renamed, res.Stats.Conflicts,
			len(res.Warnings), res.Stats.Duration)
	}
	return nil
}
