// Command mc2 checks a temporal-logic property against an SBML model
// (§4.1.4): deterministically over an ODE trace, or probabilistically over
// repeated stochastic simulations in the manner of the Monte Carlo Model
// Checker.
//
// Usage:
//
//	mc2 -prop 'G({A >= 0}) & F({B > 0.5})' model.xml
//	mc2 -prop 'F({C > 10})' -runs 100 -t1 50 model.xml
//
// With -runs 0 (default) the property is checked once on the ODE trace and
// the exit status reports the verdict (0 holds, 1 fails). With -runs N > 0,
// N stochastic runs, one worker per proc, estimate the satisfaction
// probability; the estimate is the same at every GOMAXPROCS, and the
// reported interval is a 95% Wilson score interval. A negative -runs is a
// usage error.
// Ctrl-C (SIGINT) or SIGTERM cancels the in-flight check or estimate at
// its next loop-granular check (between and inside stochastic runs),
// prints what was in progress to stderr, and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/mc2"
	"sbmlcompose/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Once the first signal has cancelled ctx, restore the default
	// disposition so a second Ctrl-C kills the process immediately
	// instead of being swallowed by the still-registered handler.
	go func() { <-ctx.Done(); stop() }()
	code, err := run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mc2:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(2)
	}
	os.Exit(code)
}

func run(ctx context.Context) (int, error) {
	var (
		prop = flag.String("prop", "", "temporal-logic property, e.g. 'G({A >= 0})'")
		runs = flag.Int("runs", 0, "stochastic runs; 0 checks the ODE trace once")
		t0   = flag.Float64("t0", 0, "start time")
		t1   = flag.Float64("t1", 10, "end time")
		step = flag.Float64("step", 0.1, "sampling step")
		seed = flag.Int64("seed", 1, "base stochastic seed")
	)
	flag.Parse()
	if flag.NArg() != 1 || *prop == "" {
		return 2, fmt.Errorf("usage: mc2 -prop FORMULA [flags] model.xml")
	}
	if *runs < 0 {
		return 2, fmt.Errorf("usage: -runs must not be negative, got %d", *runs)
	}
	m, err := sbmlcompose.ParseModelFile(flag.Arg(0))
	if err != nil {
		return 2, err
	}
	cli := sbmlcompose.New()
	start := time.Now()
	cancelled := func(what string) {
		fmt.Fprintf(os.Stderr, "mc2: cancelled %s after %s (property %q, %d run(s) requested); no verdict\n",
			what, time.Since(start).Round(time.Millisecond), *prop, *runs)
	}
	opts := sim.Options{T0: *t0, T1: *t1, Step: *step, Seed: *seed}
	if *runs == 0 {
		ok, err := cli.CheckProperty(ctx, m, *prop, opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				cancelled("ODE property check")
			}
			return 2, err
		}
		if ok {
			fmt.Println("property holds")
			return 0, nil
		}
		fmt.Println("property fails")
		return 1, nil
	}
	f, err := mc2.Parse(*prop)
	if err != nil {
		return 2, err
	}
	eng, err := sim.Compile(m)
	if err != nil {
		return 2, err
	}
	est, err := mc2.Probability(ctx, eng, f, *runs, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cancelled("probability estimate")
		}
		return 2, err
	}
	fmt.Printf("P(%s) ≈ %.4f, 95%% CI [%.4f, %.4f] (%d runs)\n", f, est.Probability, est.Lo, est.Hi, est.Runs)
	return 0, nil
}
