package solver

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tessel/internal/placement"
)

// vshapeTasks builds the v-shape 4-device task system with n micro-batches —
// the instance family the parallel root split is tuned on.
func vshapeTasks(t testing.TB, n int) []Task {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := BuildTasks(p, AllBlocks(p, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestParallelSolveByteIdentical is the core contract of the root-split
// search: for every Workers value ≥ 1 the full Result — starts, makespan,
// verdict flags, and every effort counter (cross-job improvements are
// visible only at batch boundaries, so the counters do not depend on
// publication timing) — must be byte-identical, and the makespan must
// match the single-threaded solve. Run under -race in CI this also
// exercises the shared incumbent and the job cursor for data races.
func TestParallelSolveByteIdentical(t *testing.T) {
	sizes := []int{2, 4}
	if !testing.Short() {
		sizes = append(sizes, 6)
	}
	for _, n := range sizes {
		tasks := vshapeTasks(t, n)
		for _, mem := range []int{0, 8} {
			serial, err := Solve(context.Background(), tasks, Options{Memory: mem})
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Feasible || !serial.Optimal {
				t.Fatalf("nmb%d mem=%d: serial solve not optimal: %+v", n, mem, serial)
			}
			var ref Result
			for _, w := range []int{1, 2, 3, 4, 5, 8} {
				res, err := Solve(context.Background(), tasks, Options{Memory: mem, Workers: w})
				if err != nil {
					t.Fatalf("nmb%d mem=%d workers=%d: %v", n, mem, w, err)
				}
				if res.Makespan != serial.Makespan {
					t.Fatalf("nmb%d mem=%d workers=%d: makespan %d != serial %d", n, mem, w, res.Makespan, serial.Makespan)
				}
				if !res.Feasible || !res.Optimal {
					t.Fatalf("nmb%d mem=%d workers=%d: not optimal: %+v", n, mem, w, res)
				}
				if w == 1 {
					ref = res
					continue
				}
				res.Elapsed = ref.Elapsed // wall time is the one legitimate difference
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("nmb%d mem=%d workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", n, mem, w, res, ref)
				}
			}
		}
	}
}

// TestParallelSolveTruncation checks the split-and-reconciled node budget:
// a budget small enough to truncate the search must still produce the exact
// same Result (incumbent starts, Optimal=false, and the Nodes counter) for
// every Workers value, because job budgets depend only on the deterministic
// job list and the reconcile pass re-solves leftover jobs sequentially.
func TestParallelSolveTruncation(t *testing.T) {
	tasks := vshapeTasks(t, 4)
	for _, budget := range []int64{50, 500, 3000} {
		var ref Result
		for _, w := range []int{1, 2, 3, 4, 5, 8} {
			res, err := Solve(context.Background(), tasks, Options{MaxNodes: budget, Workers: w})
			if err != nil {
				t.Fatalf("budget=%d workers=%d: %v", budget, w, err)
			}
			if !res.Feasible {
				t.Fatalf("budget=%d workers=%d: greedy incumbent lost: %+v", budget, w, res)
			}
			if res.Nodes > budget {
				t.Fatalf("budget=%d workers=%d: expanded %d nodes over budget", budget, w, res.Nodes)
			}
			if w == 1 {
				ref = res
				continue
			}
			res.Elapsed = ref.Elapsed
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("budget=%d workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", budget, w, res, ref)
			}
		}
		// The full nmb4 solve needs 8283 nodes, so the two small budgets
		// must actually exercise the truncation path.
		if budget < 8000 && ref.Optimal {
			t.Fatalf("budget=%d: expected a truncated solve, got Optimal", budget)
		}
	}
}

// TestParallelSharedMemoTier pins the tentpole behaviors of the shared memo
// tier: jobs mode actually hits it (SharedMemoHits > 0 — cross-job reuse is
// the mechanism that closed the 9.3× node gap), the two tiers stay disjoint
// counters, and the totals are identical across worker counts (covered by
// the byte-identity test, re-asserted here on the counters specifically).
func TestParallelSharedMemoTier(t *testing.T) {
	tasks := vshapeTasks(t, 4)
	serial, err := Solve(context.Background(), tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for _, w := range []int{1, 2, 3, 8} {
		res, err := Solve(context.Background(), tasks, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.SharedMemoHits == 0 {
			t.Fatalf("workers=%d: SharedMemoHits = 0; the shared tier never pruned", w)
		}
		if w == 1 {
			ref = res
			continue
		}
		if res.SharedMemoHits != ref.SharedMemoHits || res.MemoHits != ref.MemoHits || res.Nodes != ref.Nodes {
			t.Fatalf("workers=%d: counters differ from workers=1: nodes %d/%d memo %d/%d shared %d/%d",
				w, res.Nodes, ref.Nodes, res.MemoHits, ref.MemoHits, res.SharedMemoHits, ref.SharedMemoHits)
		}
	}
	if serial.SharedMemoHits != 0 || serial.JobsStolen != 0 {
		t.Fatalf("single-threaded solve reported parallel counters: %+v", serial)
	}
	// The node-gap target itself, on the instance the 9.3x gap was measured
	// on: nmb6 jobs mode must stay within 2x of the sequential engine
	// (617,665 vs 66,250 nodes before the tier; ~1.2x after).
	if !testing.Short() {
		big := vshapeTasks(t, 6)
		seq, err := Solve(context.Background(), big, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Solve(context.Background(), big, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if par.Nodes > 2*seq.Nodes {
			t.Fatalf("nmb6 jobs mode expanded %d nodes, more than 2x the sequential %d", par.Nodes, seq.Nodes)
		}
	}
}

// TestParallelSplitOversizedJobs forces the deterministic work-stealing
// path by lowering the first-pass node cap: oversized jobs must split into
// sub-jobs (JobsStolen > 0) and the Result — schedule bytes and counters —
// must remain byte-identical for every worker count, including odd ones
// that leave the cursor mid-batch.
func TestParallelSplitOversizedJobs(t *testing.T) {
	saved := splitNodeCap
	splitNodeCap = 64
	defer func() { splitNodeCap = saved }()

	tasks := vshapeTasks(t, 4)
	serial, err := Solve(context.Background(), tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref Result
	for _, w := range []int{1, 2, 3, 5, 8} {
		res, err := Solve(context.Background(), tasks, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.JobsStolen == 0 {
			t.Fatalf("workers=%d: JobsStolen = 0 under a 64-node cap", w)
		}
		if !res.Optimal || res.Makespan != serial.Makespan {
			t.Fatalf("workers=%d: split solve degraded: %+v (serial makespan %d)", w, res, serial.Makespan)
		}
		if w == 1 {
			ref = res
			continue
		}
		res.Elapsed = ref.Elapsed
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d: result differs from workers=1:\n%+v\nvs\n%+v", w, res, ref)
		}
	}
}

// TestParallelSolveCancellation cancels a context mid-parallel-solve: the
// solve must return the context's error promptly, and the pool must stay
// usable afterwards.
func TestParallelSolveCancellation(t *testing.T) {
	tasks := vshapeTasks(t, 6) // large enough that the solve outlives the timeout
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Solve(ctx, tasks, Options{Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v to propagate", d)
	}
	// A fresh solve on the recycled searchers must still work.
	res, err := Solve(context.Background(), vshapeTasks(t, 2), Options{Workers: 4})
	if err != nil || !res.Optimal {
		t.Fatalf("post-cancel solve: res=%+v err=%v", res, err)
	}
}

// TestParallelSatisfyOnlySingleThreaded: satisfiability solves stop at the
// first feasible schedule — a race by construction — so Workers must be
// ignored and the result must match the single-threaded check.
func TestParallelSatisfyOnlySingleThreaded(t *testing.T) {
	tasks := vshapeTasks(t, 4)
	base, err := Solve(context.Background(), tasks, Options{SatisfyOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		res, err := Solve(context.Background(), tasks, Options{SatisfyOnly: true, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = base.Elapsed
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d: SatisfyOnly result differs: %+v vs %+v", w, res, base)
		}
	}
}

// TestResolveWorkers pins the resolution rule: explicit requests are
// honored verbatim, and auto (0) and negatives resolve to the
// single-threaded search. GOMAXPROCS is forced to 2 so the test also pins
// that a multi-core machine never turns the root split on implicitly.
func TestResolveWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, requested := range []int{1, 2, 3, 8} {
		if got := ResolveWorkers(requested); got != requested {
			t.Fatalf("explicit request %d not honored: got %d", requested, got)
		}
	}
	for _, requested := range []int{0, -1, -8} {
		if got := ResolveWorkers(requested); got != 0 {
			t.Fatalf("ResolveWorkers(%d) = %d, want 0 (single-threaded)", requested, got)
		}
	}
}
