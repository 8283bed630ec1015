// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each driver returns a typed result whose String method
// prints the same rows or series the paper reports; cmd/tessel-bench runs
// them all, and bench_test.go exposes one testing.B benchmark per
// experiment.
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// the authors' 32×V100 testbed); EXPERIMENTS.md records paper-vs-measured
// for every experiment and discusses where the shapes agree.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

// Quick reduces sweep sizes so the full suite finishes in seconds; used by
// unit tests. Full mode is what cmd/tessel-bench and the benchmarks run.
type Mode struct {
	// Quick trims sweeps (fewer micro-batch points, lower NR caps).
	Quick bool
	// SolverWorkers is the per-solve branch-and-bound worker count every
	// search in the suite runs with: ≥ 1 runs the root-split search with
	// that many workers, 0 runs the single-threaded search. The measured
	// schedules are identical for every explicit count ≥ 1.
	SolverWorkers int
}

// UnitShapes returns the five canonical placements with unit costs
// (fwd=1, bwd=2, mem ±1) on 4 devices — the setting of Figures 3, 11, 12
// and Table II.
func UnitShapes() map[string]*sched.Placement {
	shapes, err := placement.Shapes(placement.Config{Devices: 4})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return shapes
}

// ShapeOrder is the presentation order used by the paper's figures.
var ShapeOrder = []string{"v-shape", "x-shape", "m-shape", "k-shape", "nn-shape"}

// ModelShapes maps the three evaluation models to their unit-cost advanced
// placements (Table II / Figures 9, 10).
var ModelShapes = map[string]string{
	"GPT":   "m-shape",
	"mT5":   "nn-shape",
	"Flava": "k-shape",
}

// ModelOrder is the presentation order of the three models.
var ModelOrder = []string{"GPT", "mT5", "Flava"}

// searchOpts are the default Tessel search options for unit-cost studies.
func searchOpts(m Mode) core.Options {
	o := core.Options{SolverWorkers: m.SolverWorkers}
	if m.Quick {
		o.MaxNR = 4
		o.MaxAssignments = 2000
		o.SolverNodes = 50000
	}
	return o
}

// fmtDuration renders a duration compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// pct renders a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// header renders a boxed section title.
func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}
