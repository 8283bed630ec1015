// Command tessel searches for an efficient pipeline schedule for a named
// operator placement strategy and renders the result, reproducing the
// interactive workflow of the paper's Figure 8.
//
// Usage:
//
//	tessel -shape m-shape -devices 4 -n 12 -memory 8 -inference=false
//	tessel serve -addr :8080
//
// One-shot mode reports the searched repetend (size, period, bubble rate),
// renders the full schedule as an ASCII Gantt chart, and summarizes search
// statistics; Ctrl-C cancels an in-flight search cleanly. The serve
// subcommand (see serve.go) runs the cache-backed JSON-over-HTTP search
// service.
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

	"tessel"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	runOneShot()
}

func runOneShot() {
	var (
		shape       = flag.String("shape", "v-shape", "placement shape: v-shape, x-shape, m-shape, k-shape, nn-shape")
		placeFile   = flag.String("placement", "", "load a custom placement from a JSON file (overrides -shape)")
		devices     = flag.Int("devices", 4, "number of devices D")
		n           = flag.Int("n", 0, "micro-batches in the final schedule (0 = 3×N_R)")
		memory      = flag.Int("memory", 0, "per-device memory capacity (0 = unbounded)")
		fwd         = flag.Int("fwd", 1, "forward block time")
		bwd         = flag.Int("bwd", 0, "backward block time (0 = 2×fwd)")
		inference   = flag.Bool("inference", false, "search the inference variant (no backward blocks)")
		maxNR       = flag.Int("max-nr", 0, "cap on repetend micro-batches (0 = memory-derived)")
		timeout     = flag.Duration("solver-timeout", 10*time.Second, "per-solve wall-clock budget")
		solverWkrs  = flag.Int("solver-workers", 0, "per-solve branch-and-bound workers (0 = sequential)")
		width       = flag.Int("width", 120, "chart width in columns")
		quiet       = flag.Bool("quiet", false, "suppress the Gantt chart")
		saveFile    = flag.String("save", "", "write the searched schedule as JSON")
		codegenFile = flag.String("codegen", "", "write generated per-device PyTorch-style code")
		traceFile   = flag.String("trace", "", "simulate and write a Chrome trace-event JSON")
		blocking    = flag.Bool("blocking", false, "use blocking communication for codegen/trace")
	)
	flag.Parse()
	if *solverWkrs < 0 {
		fmt.Fprintf(os.Stderr, "-solver-workers must be non-negative, got %d\n", *solverWkrs)
		os.Exit(2)
	}

	var p *tessel.Placement
	if *placeFile != "" {
		f, err := os.Open(*placeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p, err = tessel.DecodePlacement(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		cfg := tessel.ShapeConfig{Devices: *devices, Fwd: *fwd, Bwd: *bwd}
		builders := map[string]func(tessel.ShapeConfig) (*tessel.Placement, error){
			"v-shape":  tessel.NewVShape,
			"x-shape":  tessel.NewXShape,
			"m-shape":  tessel.NewMShape,
			"k-shape":  tessel.NewKShape,
			"nn-shape": tessel.NewNNShape,
		}
		build, ok := builders[*shape]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown shape %q; options: v-shape, x-shape, m-shape, k-shape, nn-shape\n", *shape)
			os.Exit(2)
		}
		var err error
		p, err = build(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *inference {
		p = tessel.InferenceVariant(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var gotSig os.Signal
	go func() {
		gotSig = <-sigCh
		cancel()
	}()
	res, err := tessel.SearchContext(ctx, p, tessel.SearchOptions{
		N:             *n,
		Memory:        *memory,
		MaxNR:         *maxNR,
		SolverTimeout: *timeout,
		SolverWorkers: *solverWkrs,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "search cancelled")
			if gotSig == syscall.SIGTERM {
				os.Exit(143)
			}
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep := res.Repetend
	fmt.Printf("placement   %s (D=%d, K=%d)\n", p.Name, p.NumDevices, p.K())
	fmt.Printf("repetend    N_R=%d period=%d (lower bound %d)\n", rep.NR, rep.Period, res.LowerBound)
	fmt.Printf("bubble rate %.1f%% steady state\n", 100*res.BubbleRate)
	fmt.Printf("schedule    %d micro-batches, makespan %d\n", res.N, res.Makespan)
	fmt.Printf("assignment  %v\n", rep.Assign)
	st := res.Stats
	fmt.Printf("search      %s total: %d assignments, %d solved, %d pruned, early-exit=%v truncated=%v\n",
		st.Total.Round(time.Millisecond), st.Assignments, st.Solved, st.Pruned, st.EarlyExit, st.Truncated)
	if !*quiet {
		fmt.Println()
		fmt.Print(tessel.Render(res.Full, tessel.RenderOptions{MaxWidth: *width}))
	}
	if *saveFile != "" {
		writeTo(*saveFile, func(f *os.File) error {
			return tessel.EncodeSchedule(f, res.Full)
		})
		fmt.Printf("schedule written to %s\n", *saveFile)
	}
	if *codegenFile != "" || *traceFile != "" {
		rtOpts := tessel.InstantiateOptions{NonBlocking: !*blocking}
		if *codegenFile != "" {
			prog, err := tessel.Instantiate(res.Full, rtOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			code, err := tessel.GenerateCode(prog, tessel.CodegenOptions{})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			writeTo(*codegenFile, func(f *os.File) error {
				_, err := f.WriteString(code)
				return err
			})
			fmt.Printf("generated code written to %s\n", *codegenFile)
		}
		if *traceFile != "" {
			tr, err := tessel.Simulate(res.Full, rtOpts, tessel.DefaultSimConfig())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			writeTo(*traceFile, func(f *os.File) error {
				return tessel.WriteChromeTrace(f, tr)
			})
			fmt.Printf("chrome trace written to %s (makespan %d µs)\n", *traceFile, tr.Makespan)
		}
	}
}

// writeTo creates path and runs fn against it, exiting on failure.
func writeTo(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
