// Command tessel-bench regenerates every table and figure of the paper's
// evaluation section (§VI) and prints the corresponding rows/series.
//
// Usage:
//
//	tessel-bench              # run everything (minutes)
//	tessel-bench -quick       # reduced sweeps (seconds)
//	tessel-bench -only fig11  # one experiment
//
// EXPERIMENTS.md records a -quick run against the paper's reported numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"tessel/internal/experiments"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
		only    = flag.String("only", "", "run a single experiment (comma-separated list), e.g. fig11,table2")
		solverW = flag.Int("solver-workers", 0, "per-solve branch-and-bound workers (0 = sequential)")
	)
	flag.Parse()
	if *solverW < 0 {
		fmt.Fprintf(os.Stderr, "-solver-workers must be non-negative, got %d\n", *solverW)
		os.Exit(2)
	}
	mode := experiments.Mode{Quick: *quick, SolverWorkers: *solverW}
	// The bench harness is the context origin: Ctrl-C cancels the sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *only == "" {
		if err := experiments.RunAll(ctx, os.Stdout, mode); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, name := range strings.Split(*only, ",") {
		name = strings.TrimSpace(name)
		t0 := time.Now()
		res, err := experiments.Run(ctx, name, mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n[%s completed in %s]\n\n", res, name, time.Since(t0).Round(time.Millisecond))
	}
}
