// Command sbmlsim simulates an SBML model and writes the species time
// series as CSV to stdout (§4.1.2/4.1.3 evaluation substrate).
//
// Usage:
//
//	sbmlsim [-method ode|ssa] [-t1 10] [-step 0.1] [-seed 1] model.xml
//	sbmlsim -method ssa -runs 100 model.xml   mean of 100 runs, one worker per proc
//	sbmlsim -rss other.csv model.xml        compare against a stored trace
//
// Ctrl-C (SIGINT) or SIGTERM cancels the in-flight simulation at its next
// integrator step (or stochastic-event check), prints what was in
// progress to stderr, and exits 130 without emitting a truncated CSV.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal has cancelled ctx, restore the default
	// disposition so a second Ctrl-C kills the process immediately
	// instead of being swallowed by the still-registered handler.
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sbmlsim:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		method   = flag.String("method", "ode", "simulation method: ode | ssa")
		t0       = flag.Float64("t0", 0, "start time")
		t1       = flag.Float64("t1", 10, "end time")
		step     = flag.Float64("step", 0.1, "output sampling step")
		seed     = flag.Int64("seed", 1, "stochastic seed (ssa)")
		adaptive = flag.Bool("adaptive", false, "use adaptive RKF45 integration (ode)")
		runs     = flag.Int("runs", 1, "ssa only: average this many runs with consecutive seeds")
		rssPath  = flag.String("rss", "", "CSV trace to compare against; prints per-species RSS")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: sbmlsim [flags] model.xml")
	}
	if *runs < 1 {
		return fmt.Errorf("usage: -runs must be at least 1, got %d", *runs)
	}
	m, err := sbmlcompose.ParseModelFile(flag.Arg(0))
	if err != nil {
		return err
	}
	cli := sbmlcompose.New()
	start := time.Now()
	opts := sbmlcompose.SimOptions{T0: *t0, T1: *t1, Step: *step, Seed: *seed, Adaptive: *adaptive}
	var tr *sbmlcompose.Trace
	switch *method {
	case "ode":
		if *runs > 1 {
			return fmt.Errorf("-runs applies to -method ssa only")
		}
		tr, err = cli.SimulateODE(ctx, m, opts)
	case "ssa":
		if *runs > 1 {
			tr, err = cli.SimulateEnsembleSSA(ctx, m, *runs, opts)
		} else {
			tr, err = cli.SimulateSSA(ctx, m, opts)
		}
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "sbmlsim: cancelled %s run of %s after %s (t1=%g, %d run(s)); no CSV written\n",
				*method, flag.Arg(0), time.Since(start).Round(time.Millisecond), *t1, *runs)
		}
		return err
	}
	if *rssPath != "" {
		f, err := os.Open(*rssPath)
		if err != nil {
			return err
		}
		other, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		per, err := sbmlcompose.RSS(tr, other, nil)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(per))
		for n := range per {
			names = append(names, n)
		}
		sort.Strings(names)
		var total float64
		for _, n := range names {
			fmt.Printf("RSS[%s] = %g\n", n, per[n])
			total += per[n]
		}
		fmt.Printf("total = %g\n", total)
		return nil
	}
	return tr.WriteCSV(os.Stdout)
}
