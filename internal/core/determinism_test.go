package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tessel/internal/sched"
)

// TestSearchDeterministicAcrossWorkers is the regression test for the
// incumbent-pruned sweep: the chosen repetend and the completed schedule
// must be byte-identical no matter how many workers the sweep fans out
// over — including the early-exit placements (v/x/k reach the lower bound)
// and the pruning-heavy m-shape. Run under -race in CI, this also
// exercises the shared-incumbent publishing for data races.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweeps are slow in -short mode")
	}
	for _, tc := range []struct {
		shape  string
		memory int
	}{
		{"v-shape", 0},
		{"x-shape", 0},
		{"k-shape", 0},
		{"m-shape", 0},
		{"v-shape", 4},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			p := shape(t, tc.shape, 4)
			opts := Options{N: 8, Memory: tc.memory}
			opts.Workers = 1
			base, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := sched.FingerprintSchedule(base.Full)
			// Repeat the parallel searches: a race on the incumbent or the
			// collector ordering would only show up intermittently.
			for _, workers := range []int{2, 8, 8, 8} {
				opts.Workers = workers
				res, err := Search(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Repetend.Period != base.Repetend.Period {
					t.Fatalf("workers=%d: period %d != %d", workers, res.Repetend.Period, base.Repetend.Period)
				}
				if res.Repetend.Assign.Compare(base.Repetend.Assign) != 0 {
					t.Fatalf("workers=%d: assignment %v != %v", workers, res.Repetend.Assign, base.Repetend.Assign)
				}
				if got := sched.FingerprintSchedule(res.Full); got != want {
					t.Fatalf("workers=%d: schedule fingerprint %s != %s", workers, got, want)
				}
			}
		})
	}
}

// TestSearchDeterministicAcrossSolverWorkers is the regression test for the
// per-solve parallel branch-and-bound: with the sweep's own worker count
// pinned, the completed schedule must be byte-identical for every explicit
// SolverWorkers value ≥ 1 — the root-split solver promises identical Results
// for any worker count — and must agree with the single-threaded solver on
// period and makespan. Run under -race in CI this exercises the solver's
// shared incumbent, job cursor and pooled worker searchers inside full
// searches across every canonical shape and the memory-bounded variants.
func TestSearchDeterministicAcrossSolverWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve sweeps are slow in -short mode")
	}
	for _, tc := range []struct {
		shape  string
		memory int
	}{
		{"v-shape", 0},
		{"m-shape", 0},
		{"k-shape", 0},
		{"nn-shape", 0},
		{"x-shape", 0},
		{"v-shape", 8},
		{"m-shape", 8},
		{"v-shape", 6},
		{"k-shape", 6},
	} {
		t.Run(fmt.Sprintf("%s/mem%d", tc.shape, tc.memory), func(t *testing.T) {
			p := shape(t, tc.shape, 4)
			// MaxNR 2 keeps the sweeps small: the root-split solver trades
			// total nodes for latency, and this test re-runs every sweep five
			// times on possibly one core — determinism needs many parallel
			// solves, not big ones.
			opts := Options{N: 6, MaxNR: 2, Memory: tc.memory, Workers: 1, SolverWorkers: 1}
			base, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := sched.FingerprintSchedule(base.Full)
			if base.Stats.SolverWorkers != 1 {
				t.Fatalf("Stats.SolverWorkers = %d, want 1", base.Stats.SolverWorkers)
			}
			for _, sw := range []int{2, 4, 8} {
				opts.SolverWorkers = sw
				res, err := Search(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("solver workers=%d: %v", sw, err)
				}
				if got := sched.FingerprintSchedule(res.Full); got != want {
					t.Fatalf("solver workers=%d: schedule fingerprint %s != %s", sw, got, want)
				}
				if res.Stats.SolverWorkers != sw {
					t.Fatalf("solver workers=%d: Stats.SolverWorkers = %d", sw, res.Stats.SolverWorkers)
				}
			}
			// The single-threaded solver partitions its dominance memo
			// differently and may pick a different equally-optimal schedule
			// per solve — which can compose into a different (equally valid)
			// full makespan — but the searched period must agree.
			opts.SolverWorkers = -1
			serial, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Repetend.Period != base.Repetend.Period {
				t.Fatalf("single-threaded solver disagrees: period %d != %d",
					serial.Repetend.Period, base.Repetend.Period)
			}
			if serial.Stats.SolverWorkers != 0 {
				t.Fatalf("negative request must report 0 workers, got %d", serial.Stats.SolverWorkers)
			}
		})
	}
}

// TestSearchSolverCountersAcrossWorkers pins the meaning of the aggregated
// solver counters: Stats.SolverNodes is "unique nodes expanded", so a job
// the parallel solver replays — a budget reconcile re-solve or a split
// sub-job re-search — must not count its first pass again. The observable
// contract is that every solver counter (nodes, both memo tiers, splits)
// is identical for every SolverWorkers value ≥ 1, including odd counts
// that leave the job cursor mid-batch.
//
// MaxAssignments: 1 keeps the sweep itself out of the comparison: an
// unrestricted sweep's workers read the live incumbent as each solve's
// period bound, so which assignments are bound-pruned — and with them the
// summed effort counters — legitimately varies with solve timing (the
// sweep collector documents this for Solved/Pruned). With one assignment
// per repetend size there is a single solve in flight at a time and every
// bound is the post-judge incumbent of the previous size, so the totals
// isolate exactly the per-solve counter contract this test is about.
func TestSearchSolverCountersAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-solve sweeps are slow in -short mode")
	}
	p := shape(t, "x-shape", 4)
	opts := Options{N: 6, MaxNR: 2, MaxAssignments: 1, Workers: 1, SolverWorkers: 1}
	base, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.SolverNodes == 0 {
		t.Fatalf("baseline sweep expanded no solver nodes: %+v", base.Stats)
	}
	for _, sw := range []int{2, 3, 5, 8} {
		opts.SolverWorkers = sw
		res, err := Search(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("solver workers=%d: %v", sw, err)
		}
		if res.Stats.SolverNodes != base.Stats.SolverNodes ||
			res.Stats.SolverMemoHits != base.Stats.SolverMemoHits ||
			res.Stats.SolverSharedMemoHits != base.Stats.SolverSharedMemoHits ||
			res.Stats.SolverJobsStolen != base.Stats.SolverJobsStolen {
			t.Fatalf("solver workers=%d: counters differ from workers=1:\nnodes %d/%d memo %d/%d shared %d/%d stolen %d/%d",
				sw, res.Stats.SolverNodes, base.Stats.SolverNodes,
				res.Stats.SolverMemoHits, base.Stats.SolverMemoHits,
				res.Stats.SolverSharedMemoHits, base.Stats.SolverSharedMemoHits,
				res.Stats.SolverJobsStolen, base.Stats.SolverJobsStolen)
		}
	}
}

// TestTimeOptimalDefaultRunsSequential pins the default engine of the
// largest exact solve the service runs: the 48-task whole-problem solve for
// m-shape on 4 devices at N = 4 (N < N_R, so serving falls back to it). On
// a multi-core process the default SolverWorkers must still run the
// single-threaded search — no shared-tier hits, no stolen jobs, and the
// same node count and schedule bytes as an explicit sequential request.
// The sequential solver's counters repeat exactly, so Nodes gates solver
// effort deterministically.
func TestTimeOptimalDefaultRunsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := shape(t, "m-shape", 4)
	solve := func(workers int) (*sched.Schedule, int64) {
		t.Helper()
		s, res, err := TimeOptimal(context.Background(), p, 4, Options{SolverNodes: 2_000_000, SolverWorkers: workers})
		if err != nil {
			t.Fatalf("solver workers=%d: %v", workers, err)
		}
		if !res.Optimal || res.Makespan != 45 {
			t.Fatalf("solver workers=%d: optimal=%t makespan=%d, want optimal 45", workers, res.Optimal, res.Makespan)
		}
		if res.SharedMemoHits != 0 || res.JobsStolen != 0 {
			t.Fatalf("solver workers=%d ran the root split: shared memo hits %d, jobs stolen %d",
				workers, res.SharedMemoHits, res.JobsStolen)
		}
		return s, res.Nodes
	}
	def, defNodes := solve(0)
	seq, seqNodes := solve(-1)
	if defNodes != seqNodes {
		t.Fatalf("default solve expanded %d nodes, sequential %d", defNodes, seqNodes)
	}
	if got, want := sched.FingerprintSchedule(def), sched.FingerprintSchedule(seq); got != want {
		t.Fatalf("default schedule %s differs from sequential %s", got, want)
	}
}

// TestSearchIncumbentPrunesSweep checks that the shared incumbent actually
// bites on a pruning-friendly placement: a default m-shape search must
// discard a substantial share of its assignments without solving them.
func TestSearchIncumbentPrunesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full m-shape sweep is slow in -short mode")
	}
	p := shape(t, "m-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned == 0 {
		t.Fatal("no assignments pruned against the incumbent")
	}
	if res.Stats.Pruned <= res.Stats.Solved {
		t.Fatalf("pruning barely bites: pruned=%d solved=%d", res.Stats.Pruned, res.Stats.Solved)
	}
	if res.Stats.SolverNodes == 0 {
		t.Fatal("Stats.SolverNodes not populated")
	}
	checkFull(t, res, 0)
}

// TestSearchSimpleCompactionDeterministicAcrossWorkers covers the one mode
// where per-assignment solves are incumbent-seeded (the makespan solve is
// the period): the canonical re-solve of the winner must keep the returned
// bytes independent of worker timing.
func TestSearchSimpleCompactionDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweeps are slow in -short mode")
	}
	p := shape(t, "m-shape", 4)
	opts := Options{N: 8, SimpleCompaction: true, Workers: 1}
	base, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := sched.FingerprintSchedule(base.Full)
	for _, workers := range []int{8, 8} {
		opts.Workers = workers
		res, err := Search(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sched.FingerprintSchedule(res.Full); got != want {
			t.Fatalf("workers=%d: schedule fingerprint %s != %s", workers, got, want)
		}
	}
}
