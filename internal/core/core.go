// Package core implements Tessel's schedule search (paper Algorithm 1 and
// §IV): the sweep over repetend sizes N_R and micro-batch index assignments,
// the lazy-search optimization of §V, schedule completion with time-optimal
// warmup and cooldown phases (§IV-C), and the extension of the repetend to
// any number of micro-batches.
//
// The sweep is incumbent-shared and bound-pruned: the best
// completion-verified period so far is published through an atomic that
// every solver worker snapshots before each solve, so an improvement found
// by any worker immediately prunes the remaining candidates across all
// workers and all remaining N_R rounds (repetend.SolveOptions.
// PeriodUpperBound). Pruning only ever discards assignments that provably
// cannot beat or tie the incumbent, and the collector judges outcomes in
// enumeration order with canonical tie-breaking, so the returned schedule
// is byte-identical for every Workers setting (assuming solver budgets are
// not exhausted — wall-clock budgets make individual solves
// timing-dependent).
//
// All entry points take a context.Context and honor it end-to-end: the
// assignment producer, every concurrent repetend-solver worker, and the
// completion solves all poll the same context, so cancelling it (or hitting
// its deadline) stops the whole sweep promptly and Search returns ctx's
// error. The per-solve budgets (SolverNodes, SolverTimeout) remain soft:
// exhausting one degrades that solve to its incumbent and the search
// continues.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tessel/internal/repetend"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

// Default budgets. The schedule problem is NP-hard; budgets keep individual
// solver calls bounded while the search still reaches the lower bound on the
// paper's placements.
const (
	// DefaultMaxNR caps the repetend micro-batch sweep when memory does not
	// bound it first (Figure 11 sweeps N_R up to 8).
	DefaultMaxNR = 8
	// DefaultMaxAssignments caps the per-N_R assignment enumeration.
	DefaultMaxAssignments = 100000
	// DefaultSolverNodes bounds each branch-and-bound solve.
	DefaultSolverNodes = 400000
)

// Options configures a Search call. The zero value searches with unbounded
// memory, default budgets, lazy search enabled, tight compaction, and a
// final schedule of 3·N_R micro-batches.
type Options struct {
	// Memory is the per-device capacity M (0 = unbounded).
	Memory int
	// N is the number of micro-batches of the final schedule. 0 defaults to
	// 3·N_R of the best repetend. If 0 < N < N_R the search falls back to a
	// direct time-optimal solve of the whole problem.
	N int
	// MaxNR caps the repetend sweep; 0 uses min(MaxInflight, DefaultMaxNR).
	MaxNR int
	// MaxAssignments caps enumeration per N_R (0 = DefaultMaxAssignments).
	MaxAssignments int
	// SolverNodes bounds each exact solve (0 = DefaultSolverNodes).
	SolverNodes int64
	// SolverTimeout bounds each exact solve in wall time (0 = none). It is a
	// soft per-solve budget: exhausting it keeps that solve's incumbent and
	// lets the search continue. Hard cancellation of the whole search is the
	// job of the context passed to Search.
	SolverTimeout time.Duration
	// DisableLazy turns off the lazy-search optimization (§V): warmup and
	// cooldown are then solved time-optimally for every improving repetend
	// instead of once at the end (the Figure 10(b) ablation).
	DisableLazy bool
	// SimpleCompaction evaluates repetends with Figure 6(a) semantics.
	SimpleCompaction bool
	// DisableLocalSearch turns off repetend order improvement.
	DisableLocalSearch bool
	// Workers sets the number of concurrent repetend solvers per N_R sweep
	// (0 = GOMAXPROCS). The chosen repetend and the returned schedule are
	// identical for every Workers setting — the sweep judges candidates in
	// enumeration order and breaks period ties by the canonically smallest
	// assignment — so Workers only trades wall-clock time for CPU.
	Workers int
	// SolverWorkers selects the branch-and-bound engine *inside* each exact
	// solve (instance makespan, completion phases, time-optimal baseline):
	// ≥ 1 runs the deterministic root-split search with that many workers,
	// 0 (the default) and negative run the single-threaded search, which
	// is the faster engine on every instance size and core count measured.
	// Orthogonal to Workers, which parallelizes *across* assignments.
	// Results are byte-identical for every explicit count ≥ 1; see
	// solver.ResolveWorkers.
	SolverWorkers int
}

// PhaseDurations records where search time went (Figure 10(a)).
type PhaseDurations struct {
	Warmup   time.Duration
	Repetend time.Duration
	Cooldown time.Duration
}

// Stats reports search effort.
type Stats struct {
	// Assignments is the number of index assignments enumerated.
	Assignments int
	// Solved is the number of repetend instances solved to a period.
	Solved int
	// Pruned is the number of assignments abandoned against the shared
	// incumbent period before (or during) their instance solve.
	Pruned int
	// Improved counts strict period improvements.
	Improved int
	// SolverNodes is the total number of branch-and-bound nodes expanded by
	// the repetend instance solves — the budget-independent measure of
	// sweep effort that incumbent pruning is meant to shrink.
	SolverNodes int64
	// SolverMemoHits is the number of those nodes pruned by the solver's
	// dominance memo, the per-search effectiveness measure of the
	// arena-backed memoization.
	SolverMemoHits int64
	// SolverSharedMemoHits is the number of nodes pruned by the parallel
	// solver's cross-job shared memo tier, summed over the repetend
	// instance solves (disjoint from SolverMemoHits; zero when the solves
	// ran single-threaded).
	SolverSharedMemoHits int64
	// SolverJobsStolen is the number of oversized root-split jobs the
	// parallel solver deterministically re-split, summed over the repetend
	// instance solves.
	SolverJobsStolen int64
	// PeriodProbes is the total number of period-feasibility probes (one
	// difference-constraint fixpoint computation each) the repetend
	// evaluations ran — across the order-independent relaxation checks,
	// the minPeriod binary searches, and local search. Like SolverNodes,
	// it sums over *solved* assignments only: a candidate discarded
	// against the incumbent by the relaxation check returns no Repetend,
	// so its single probe is not counted.
	PeriodProbes int64
	// PeriodRelaxations is the number of successful distance tightenings
	// inside those probes — the budget-independent effort measure of the
	// period machinery (the analogue of SolverNodes for the incremental
	// period engine).
	PeriodRelaxations int64
	// LocalSearchSwaps is the number of candidate adjacent-order swaps
	// the repetend local search applied and evaluated (kept or undone).
	LocalSearchSwaps int64
	// EarlyExit is true when the search hit the device-work lower bound and
	// stopped (Algorithm 1 lines 19–20).
	EarlyExit bool
	// Truncated is true when an enumeration or solver budget was exhausted
	// anywhere in the search — assignment enumeration, a repetend instance
	// solve, or a completion solve — so the result is budget-degraded
	// rather than proven.
	Truncated bool
	// NRSwept is the largest N_R the sweep reached.
	NRSwept int
	// SolverWorkers is the effective per-solve branch-and-bound worker
	// count the repetend instance solves ran with (0 = single-threaded) —
	// Options.SolverWorkers after solver.ResolveWorkers.
	SolverWorkers int
	// Phase breaks the search time down by phase.
	Phase PhaseDurations
	// Total is the wall-clock search time.
	Total time.Duration
}

// NodesPerSec is the repetend-phase solver node throughput: branch-and-
// bound nodes expanded per second of repetend-solve wall time. Zero when
// no repetend solve ran.
func (s Stats) NodesPerSec() float64 {
	if s.Phase.Repetend <= 0 {
		return 0
	}
	return float64(s.SolverNodes) / s.Phase.Repetend.Seconds()
}

// Result is a completed Tessel search.
type Result struct {
	// Placement is the input operator placement strategy.
	Placement *sched.Placement
	// Repetend is the best repetend found.
	Repetend *repetend.Repetend
	// LowerBound is max_d of per-device work — the best possible period.
	LowerBound int
	// BubbleRate is the steady-state bubble rate of the repetend.
	BubbleRate float64
	// N is the number of micro-batches in the final schedule.
	N int
	// Warmup, Body and Cooldown are the three phases in absolute time; Full
	// is their union covering exactly N micro-batches.
	Warmup, Body, Cooldown, Full *sched.Schedule
	// Makespan is Full's completion time.
	Makespan int
	// Stats reports search effort.
	Stats Stats
}

func (o Options) withDefaults() Options {
	if o.Memory == 0 {
		o.Memory = sched.Unbounded
	}
	if o.MaxAssignments == 0 {
		o.MaxAssignments = DefaultMaxAssignments
	}
	if o.SolverNodes == 0 {
		o.SolverNodes = DefaultSolverNodes
	}
	return o
}

// MaxInflight returns the paper's CalMaxInflight: the largest number of
// concurrently in-flight micro-batches the memory capacity admits, derived
// from the per-device activation footprint of one micro-batch.
func MaxInflight(p *sched.Placement, memory int) int {
	if memory <= 0 || memory == sched.Unbounded {
		return DefaultMaxNR
	}
	inflight := DefaultMaxNR
	for d := 0; d < p.NumDevices; d++ {
		act := 0
		for _, i := range p.DeviceStages(sched.DeviceID(d)) {
			if p.Stages[i].Mem > 0 {
				act += p.Stages[i].Mem
			}
		}
		if act == 0 {
			continue
		}
		if f := memory / act; f < inflight {
			inflight = f
		}
	}
	if inflight < 1 {
		inflight = 1
	}
	return inflight
}

// Search runs Algorithm 1 for placement p: it sweeps repetend sizes and
// index assignments, keeps the repetend with the smallest steady-state
// period, completes warmup and cooldown phases, and extends the schedule to
// opts.N micro-batches. Cancelling ctx stops every in-flight solver worker
// promptly and returns ctx's error.
func Search(ctx context.Context, p *sched.Placement, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.N < 0 {
		return nil, fmt.Errorf("core: micro-batch count must be non-negative, got %d", opts.N)
	}
	opts = opts.withDefaults()
	//tessel:waive:determinism wall-clock feeds only the Stats.Total telemetry, never schedule bytes
	t0 := time.Now()
	res := &Result{
		Placement:  p,
		LowerBound: p.LowerBound(),
	}
	maxNR := opts.MaxNR
	if maxNR <= 0 {
		maxNR = MaxInflight(p, opts.Memory)
	}

	st := &sweepState{}
	// One searcher pool, one period-engine pool, and one instance-solve
	// cache for the whole search: the pools recycle solver state (task
	// graphs, frontier buffers, memo arenas) and period-machinery state
	// (edge CSRs, dist/queue vectors, order buffers) across the sweep's
	// hundreds of instance solves and thousands of feasibility probes;
	// the cache lets assignments that share a lag-zero pattern (across
	// workers and N_R rounds) pay the branch-and-bound makespan solve
	// once.
	pool := solver.NewPool()
	repOpts := repetend.SolveOptions{
		Memory:             opts.Memory,
		SolverNodes:        opts.SolverNodes,
		SolverTimeout:      opts.SolverTimeout,
		SimpleCompaction:   opts.SimpleCompaction,
		DisableLocalSearch: opts.DisableLocalSearch,
		SolverWorkers:      opts.SolverWorkers,
		Pool:               pool,
		PeriodPool:         repetend.NewPeriodPool(),
		Cache:              repetend.NewSolveCache(),
	}
	res.Stats.SolverWorkers = solver.ResolveWorkers(opts.SolverWorkers)

	for nr := 1; nr <= maxNR; nr++ {
		res.Stats.NRSwept = nr
		if err := sweepNR(ctx, p, nr, st, repOpts, opts, pool, res); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Stats.EarlyExit {
			break
		}
	}
	best := st.best
	if best == nil {
		return nil, fmt.Errorf("core: no feasible repetend for %s within memory %d and N_R ≤ %d", p.Name, opts.Memory, maxNR)
	}
	if opts.SimpleCompaction && st.bestBound > 0 {
		// Under simple compaction the winning instance solve was seeded with
		// the incumbent period of the moment, which can steer the solver to
		// a different (equally optimal) start-time vector than an unbounded
		// solve. Re-solve the winner canonically so the returned schedule
		// bytes never depend on incumbent timing. (Tight-compaction results
		// are bound-independent by construction and skip this.)
		canonOpts := repOpts
		canonOpts.PeriodUpperBound = 0
		// Keep the sweep's verified best if the unbounded re-solve comes
		// back worse — possible only when a node/wall budget truncated it.
		if r, err := repetend.Solve(ctx, p, best.Assign, canonOpts); err == nil && r.Period <= best.Period {
			best = r
		} else if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	res.Repetend = best
	res.BubbleRate = best.SteadyBubbleRate()

	n := opts.N
	if n == 0 {
		n = 3 * best.NR
	}
	res.N = n
	if err := completeSchedule(ctx, res, best, n, opts, pool); err != nil {
		return nil, err
	}
	res.Makespan = res.Full.Makespan()
	res.Stats.Total = time.Since(t0)
	return res, nil
}

// sweepState is the cross-round state of one Search's repetend sweep: the
// verified best repetend, the incumbent bound in effect when it was solved,
// and the shared atomic incumbent every solver worker prunes against.
type sweepState struct {
	// best is the best completion-verified repetend so far.
	best *repetend.Repetend
	// bestBound is the PeriodUpperBound best's solve ran under (0 = none);
	// Search uses it to decide whether a canonical re-solve is needed.
	bestBound int
	// incumbent is the smallest completion-verified period published so
	// far (0 = none yet). Workers snapshot it before every solve, so an
	// improvement found by any worker prunes all later solves across all
	// workers and all remaining N_R rounds — not just the next round.
	// Only the collector stores to it, and only after checkCompletion
	// passes: an unverified period could prune candidates that the failed
	// repetend never actually beats.
	incumbent atomic.Int64
}

// assignTask is one enumerated assignment tagged with its enumeration
// sequence number.
type assignTask struct {
	seq int
	a   repetend.Assignment
}

// solveOutcome is one worker's verdict on one assignment. Every received
// task produces exactly one outcome (r == nil for infeasible, pruned,
// skipped, or cancelled assignments), so the collector can process results
// in enumeration order.
type solveOutcome struct {
	seq   int
	r     *repetend.Repetend
	bound int // incumbent snapshot the solve pruned against
	// panicked carries a panic recovered inside the worker's solve: recover
	// only works on the panicking goroutine, so the worker contains the
	// crash and the collector re-raises it on the Search goroutine, where
	// the engine's structured-error recovery can convert it.
	panicked any
}

// solveAssignment runs one assignment solve with panic containment. A panic
// inside the solve (injected by faultpoint or a real bug) is returned as
// panicked instead of unwinding the sweep-worker goroutine.
func solveAssignment(ctx context.Context, p *sched.Placement, a repetend.Assignment, ro repetend.SolveOptions) (r *repetend.Repetend, err error, panicked any) {
	defer func() {
		if pv := recover(); pv != nil {
			r, err, panicked = nil, nil, pv
		}
	}()
	r, err = repetend.Solve(ctx, p, a, ro)
	return r, err, nil
}

// sweepNR enumerates and evaluates every canonical assignment for one
// repetend size, fanning the solves out over a worker pool and folding
// improvements into st. It sets Stats.EarlyExit when the device-work lower
// bound is reached (Algorithm 1 lines 19–20). checkCompletion runs
// serialized on the collector side, so phase timing stays consistent.
//
// The collector processes outcomes in enumeration order (buffering the
// out-of-order ones), replaces the best on a strictly smaller period or on
// an equal period with a canonically smaller assignment, and stops — as a
// sequential sweep would — at the first assignment that reaches the
// lower bound. Together with bound-independent per-assignment solves this
// makes the chosen repetend identical for any Workers setting; only the
// effort counters (Solved, Pruned, SolverNodes) vary with scheduling.
//
// Cancelling ctx stops the producer and every worker: in-flight solves
// abort at their next context poll and sweepNR returns ctx's error.
func sweepNR(ctx context.Context, p *sched.Placement, nr int, st *sweepState, repOpts repetend.SolveOptions, opts Options, pool *solver.Pool, res *Result) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		stop        atomic.Bool
		solved      atomic.Int64
		pruned      atomic.Int64
		nodes       atomic.Int64
		memoHits    atomic.Int64
		sharedHits  atomic.Int64
		jobsStolen  atomic.Int64
		periodProbe atomic.Int64
		periodRelax atomic.Int64
		lsSwaps     atomic.Int64
		truncSlv    atomic.Bool
		repNanos    atomic.Int64
		assignCh    = make(chan assignTask, 4*workers)
		resultCh    = make(chan solveOutcome, 4*workers)
		wg          sync.WaitGroup
		truncated   bool
	)
	if st.best != nil && st.best.Period == res.LowerBound {
		res.Stats.EarlyExit = true
		return nil
	}
	// Producer: enumerate canonical assignments under the budget.
	go func() {
		defer close(assignCh)
		budget := opts.MaxAssignments
		seq := 0
		_, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
			if stop.Load() {
				return false
			}
			res.Stats.Assignments++
			budget--
			if budget < 0 {
				truncated = true
				return false
			}
			select {
			case assignCh <- assignTask{seq: seq, a: a}:
				seq++
				return true
			case <-ctx.Done():
				return false
			}
		})
		if err != nil {
			// Placement was validated by Search; enumeration errors cannot
			// occur here, but do not hang if they somehow do.
			stop.Store(true)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range assignCh {
				if stop.Load() || ctx.Err() != nil {
					resultCh <- solveOutcome{seq: task.seq} // drain
					continue
				}
				ro := repOpts
				bound := int(st.incumbent.Load())
				ro.PeriodUpperBound = bound
				//tessel:waive:determinism wall-clock feeds only the repNanos throughput telemetry, never schedule bytes
				t0 := time.Now()
				r, err, pv := solveAssignment(ctx, p, task.a, ro)
				repNanos.Add(int64(time.Since(t0)))
				if pv != nil {
					stop.Store(true)
					resultCh <- solveOutcome{seq: task.seq, panicked: pv}
					continue
				}
				if err != nil {
					// Infeasible, pruned, or cancelled assignment.
					if errors.Is(err, repetend.ErrPruned) {
						pruned.Add(1)
					}
					if errors.Is(err, repetend.ErrTruncated) {
						truncSlv.Store(true)
					}
					resultCh <- solveOutcome{seq: task.seq}
					continue
				}
				solved.Add(1)
				nodes.Add(r.SolverNodes)
				memoHits.Add(r.SolverMemoHits)
				sharedHits.Add(r.SolverSharedMemoHits)
				jobsStolen.Add(r.SolverJobsStolen)
				periodProbe.Add(r.PeriodProbes)
				periodRelax.Add(r.PeriodRelaxations)
				lsSwaps.Add(r.LocalSearchSwaps)
				if r.Truncated {
					truncSlv.Store(true)
				}
				resultCh <- solveOutcome{seq: task.seq, r: r, bound: bound}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resultCh)
	}()
	var (
		firstErr error
		pending  = make(map[int]solveOutcome)
		next     int
		done     bool // early exit or error: stop judging, keep draining
	)
	judge := func(out solveOutcome) {
		r := out.r
		if r == nil {
			return
		}
		if st.best != nil {
			if r.Period > st.best.Period {
				return
			}
			if r.Period == st.best.Period && r.Assign.Compare(st.best.Assign) >= 0 {
				return
			}
		}
		ok, err := checkCompletion(ctx, p, r, opts, pool, &res.Stats)
		if err != nil {
			firstErr = err
			done = true
			stop.Store(true)
			return
		}
		if !ok {
			return
		}
		if st.best == nil || r.Period < st.best.Period {
			res.Stats.Improved++
			st.incumbent.Store(int64(r.Period))
		}
		st.best, st.bestBound = r, out.bound
		if r.Period == res.LowerBound {
			res.Stats.EarlyExit = true
			done = true
			stop.Store(true)
		}
	}
	// The collector body is guarded: judge() runs completion solves on this
	// goroutine, and a panic mid-loop would otherwise strand workers blocked
	// on resultCh sends. On either a recovered collector panic or a worker-
	// contained one, the loop keeps (or resumes) draining until the workers
	// close resultCh, then re-raises on the Search goroutine.
	var panicVal any
	collect := func() {
		defer func() {
			if pv := recover(); pv != nil {
				panicVal = pv
				stop.Store(true)
			}
		}()
		for out := range resultCh {
			if out.panicked != nil && panicVal == nil {
				panicVal = out.panicked
				done = true
			}
			pending[out.seq] = out
			for !done {
				o, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				judge(o)
			}
		}
	}
	collect()
	if panicVal != nil {
		for range resultCh {
			// Release any workers still parked on a send after a collector
			// panic cut the receive loop short.
		}
		panic(panicVal)
	}
	res.Stats.Solved += int(solved.Load())
	res.Stats.Pruned += int(pruned.Load())
	res.Stats.SolverNodes += nodes.Load()
	res.Stats.SolverMemoHits += memoHits.Load()
	res.Stats.SolverSharedMemoHits += sharedHits.Load()
	res.Stats.SolverJobsStolen += jobsStolen.Load()
	res.Stats.PeriodProbes += periodProbe.Load()
	res.Stats.PeriodRelaxations += periodRelax.Load()
	res.Stats.LocalSearchSwaps += lsSwaps.Load()
	res.Stats.Phase.Repetend += time.Duration(repNanos.Load())
	if truncated || truncSlv.Load() {
		res.Stats.Truncated = true
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Extend rebuilds the warmup/body/cooldown composition of a completed
// search for a different number of micro-batches without re-running the
// repetend sweep — the schedule-generalization property of §III-C ("it is
// possible to extend the repetend schedule to accommodate any number of
// micro-batches"). Memory and solver budgets come from opts, which should
// normally match the original search.
func Extend(ctx context.Context, res *Result, n int, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if res == nil || res.Repetend == nil {
		return nil, fmt.Errorf("core: Extend needs a completed search result")
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: Extend needs a positive micro-batch count, got %d", n)
	}
	opts = opts.withDefaults()
	out := &Result{
		Placement:  res.Placement,
		Repetend:   res.Repetend,
		LowerBound: res.LowerBound,
		BubbleRate: res.BubbleRate,
		N:          n,
	}
	if err := completeSchedule(ctx, out, res.Repetend, n, opts, nil); err != nil {
		return nil, err
	}
	out.Makespan = out.Full.Makespan()
	return out, nil
}

// warmupBlocks returns {B^n_i : n < r_i} (Equation 5).
func warmupBlocks(p *sched.Placement, a repetend.Assignment) []sched.Block {
	var blocks []sched.Block
	for i := range p.Stages {
		for n := 0; n < a[i]; n++ {
			blocks = append(blocks, sched.Block{Stage: i, Micro: n})
		}
	}
	return blocks
}

// cooldownBlocks returns {B^n_i : r_i + reps ≤ n < N} — Equation 6
// generalized from reps = 1 (N = N_R) to the extended schedule.
func cooldownBlocks(p *sched.Placement, a repetend.Assignment, reps, n int) []sched.Block {
	var blocks []sched.Block
	for i := range p.Stages {
		for m := a[i] + reps; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: i, Micro: m})
		}
	}
	return blocks
}

// checkCompletion implements the lazy-search gate: when lazy search is on,
// it only asks the solver whether valid warmup and cooldown schedules exist
// (satisfiability); otherwise it solves them time-optimally — the two modes
// of §V.
func checkCompletion(ctx context.Context, p *sched.Placement, r *repetend.Repetend, opts Options, pool *solver.Pool, stats *Stats) (bool, error) {
	warm := warmupBlocks(p, r.Assign)
	cool := cooldownBlocks(p, r.Assign, 1, r.NR)
	solveOpts := solver.Options{
		NumDevices:  p.NumDevices,
		Memory:      opts.Memory,
		MaxNodes:    opts.SolverNodes,
		Timeout:     opts.SolverTimeout,
		SatisfyOnly: !opts.DisableLazy,
	}
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase.Warmup telemetry, never schedule bytes
	t0 := time.Now()
	warmOK, warmTrunc, err := phaseFeasible(ctx, p, warm, nil, nil, solveOpts, opts.SolverWorkers, pool)
	stats.Phase.Warmup += time.Since(t0)
	if warmTrunc {
		stats.Truncated = true
	}
	if err != nil || !warmOK {
		return false, err
	}
	// The cooldown check runs with the post-warmup/repetend memory state.
	initMem := make([]int, p.NumDevices)
	for i := range p.Stages {
		for _, d := range p.Stages[i].Devices {
			initMem[d] += (r.Assign[i] + 1) * p.Stages[i].Mem
		}
	}
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase.Cooldown telemetry, never schedule bytes
	t1 := time.Now()
	coolOK, coolTrunc, err := phaseFeasible(ctx, p, cool, initMem, nil, solveOpts, opts.SolverWorkers, pool)
	stats.Phase.Cooldown += time.Since(t1)
	if coolTrunc {
		stats.Truncated = true
	}
	if err != nil || !coolOK {
		return false, err
	}
	return true, nil
}

// phaseFeasible reports whether the blocks admit a valid phase schedule.
// truncated is true when the verdict was reached after a solver budget ran
// out, so a false answer is budget-degraded rather than proven. workers is
// the *requested* per-solve worker count, resolved here (satisfiability
// solves stay single-threaded inside the solver regardless).
func phaseFeasible(ctx context.Context, p *sched.Placement, blocks []sched.Block, initMem, deviceReady []int, opts solver.Options, workers int, pool *solver.Pool) (ok, truncated bool, err error) {
	if len(blocks) == 0 {
		return true, false, nil
	}
	tasks, err := solver.BuildTasks(p, blocks, nil)
	if err != nil {
		return false, false, err
	}
	opts.InitialMem = initMem
	opts.DeviceReady = deviceReady
	opts.Workers = solver.ResolveWorkers(workers)
	res, err := pool.Solve(ctx, tasks, opts)
	if err != nil {
		return false, false, err
	}
	return res.Feasible, !res.Optimal, nil
}

// complete builds the final N-micro-batch schedule around the repetend:
// time-optimal warmup, R = N − N_R + 1 unrolled instances compacted against
// the warmup, and a time-optimal cooldown released by repetend finishes.
func completeSchedule(ctx context.Context, res *Result, r *repetend.Repetend, n int, opts Options, pool *solver.Pool) error {
	p := res.Placement
	if n < r.NR {
		return completeDirect(ctx, res, n, opts)
	}
	reps := n - r.NR + 1

	// Warmup: time-optimal solve from t=0.
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase.Warmup telemetry, never schedule bytes
	warmStart := time.Now()
	warm := warmupBlocks(p, r.Assign)
	warmSched, warmFinish, err := solvePhase(ctx, p, warm, nil, nil, nil, opts, pool, &res.Stats)
	res.Stats.Phase.Warmup += time.Since(warmStart)
	if err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	// Body offset δ: earliest start of instance 0 after the warmup, per
	// device availability and warmup→body dependencies (tight compaction
	// across the phase boundary).
	delta := 0
	lastW := make([]int, p.NumDevices)
	for _, it := range warmSched.Items {
		for _, d := range p.Stages[it.Stage].Devices {
			if f := it.Start + p.Stages[it.Stage].Time; f > lastW[d] {
				lastW[d] = f
			}
		}
	}
	for d := 0; d < p.NumDevices; d++ {
		first := -1
		for _, i := range p.DeviceStages(sched.DeviceID(d)) {
			if first < 0 || r.Starts[i] < first {
				first = r.Starts[i]
			}
		}
		if first >= 0 && lastW[d]-first > delta {
			delta = lastW[d] - first
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			lag := r.Assign[i] - r.Assign[j]
			for k := 0; k < lag && k < reps; k++ {
				pred := sched.Block{Stage: i, Micro: r.Assign[j] + k}
				if f, ok := warmFinish[pred]; ok {
					if need := f - (r.Starts[j] + k*r.Period); need > delta {
						delta = need
					}
				}
			}
		}
	}

	// Body: unrolled instances at offset delta.
	body := r.Unroll(reps).Shift(delta)

	// Cooldown: released by warmup/body finishes.
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase.Cooldown telemetry, never schedule bytes
	coolStart := time.Now()
	cool := cooldownBlocks(p, r.Assign, reps, n)
	bodyFinish := make(map[sched.Block]int, body.Len())
	deviceReady := append([]int(nil), lastW...)
	for _, it := range body.Items {
		f := it.Start + p.Stages[it.Stage].Time
		bodyFinish[it.Block] = f
		for _, d := range p.Stages[it.Stage].Devices {
			if f > deviceReady[d] {
				deviceReady[d] = f
			}
		}
	}
	releases := map[sched.Block]int{}
	coolSet := map[sched.Block]bool{}
	for _, b := range cool {
		coolSet[b] = true
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			for m := 0; m < n; m++ {
				succ := sched.Block{Stage: j, Micro: m}
				if !coolSet[succ] {
					continue
				}
				pred := sched.Block{Stage: i, Micro: m}
				if coolSet[pred] {
					continue // handled as a solver dependency
				}
				var f int
				if bf, ok := bodyFinish[pred]; ok {
					f = bf
				} else if wf, ok := warmFinish[pred]; ok {
					f = wf
				} else {
					return fmt.Errorf("cooldown block %v: predecessor %v not scheduled", succ, pred)
				}
				if f > releases[succ] {
					releases[succ] = f
				}
			}
		}
	}
	initMem := make([]int, p.NumDevices)
	for i := range p.Stages {
		for _, d := range p.Stages[i].Devices {
			initMem[d] += (r.Assign[i] + reps) * p.Stages[i].Mem
		}
	}
	coolSched, _, err := solvePhase(ctx, p, cool, releases, initMem, deviceReady, opts, pool, &res.Stats)
	res.Stats.Phase.Cooldown += time.Since(coolStart)
	if err != nil {
		return fmt.Errorf("cooldown: %w", err)
	}

	full := warmSched.Clone()
	full.Append(body)
	full.Append(coolSched)
	full.Sort()
	if err := full.Validate(sched.ValidateOptions{Memory: opts.Memory}); err != nil {
		return fmt.Errorf("completed schedule invalid: %w", err)
	}
	res.Warmup, res.Body, res.Cooldown, res.Full = warmSched, body, coolSched, full
	return nil
}

// completeDirect handles N < N_R with a whole-problem time-optimal solve.
func completeDirect(ctx context.Context, res *Result, n int, opts Options) error {
	full, sres, err := TimeOptimal(ctx, res.Placement, n, opts)
	if err != nil {
		return err
	}
	if !sres.Optimal {
		res.Stats.Truncated = true
	}
	res.Warmup = sched.NewSchedule(res.Placement)
	res.Body = full
	res.Cooldown = sched.NewSchedule(res.Placement)
	res.Full = full
	return nil
}

// solvePhase runs a time-optimal solve of the given blocks and returns the
// schedule plus a finish-time index. A budget-degraded (non-optimal) solve
// marks stats as truncated.
func solvePhase(ctx context.Context, p *sched.Placement, blocks []sched.Block, releases map[sched.Block]int, initMem, deviceReady []int, opts Options, pool *solver.Pool, stats *Stats) (*sched.Schedule, map[sched.Block]int, error) {
	if len(blocks) == 0 {
		return sched.NewSchedule(p), map[sched.Block]int{}, nil
	}
	tasks, err := solver.BuildTasks(p, blocks, releases)
	if err != nil {
		return nil, nil, err
	}
	sres, err := pool.Solve(ctx, tasks, solver.Options{
		NumDevices:  p.NumDevices,
		Memory:      opts.Memory,
		InitialMem:  initMem,
		DeviceReady: deviceReady,
		MaxNodes:    opts.SolverNodes,
		Timeout:     opts.SolverTimeout,
		Workers:     solver.ResolveWorkers(opts.SolverWorkers),
	})
	if err != nil {
		return nil, nil, err
	}
	if !sres.Optimal {
		stats.Truncated = true
	}
	if !sres.Feasible {
		return nil, nil, errors.New("phase infeasible")
	}
	s, err := solver.ToSchedule(p, tasks, sres)
	if err != nil {
		return nil, nil, err
	}
	finish := make(map[sched.Block]int, len(tasks))
	for i, task := range tasks {
		finish[task.ID] = sres.Starts[i] + task.Time
	}
	return s, finish, nil
}

// TimeOptimal solves the whole N-micro-batch problem exactly — the "TO"
// baseline of §III-B (Figure 3) and the search-cost comparison of Figure 9.
// Cancelling ctx aborts the solve and returns ctx's error.
func TimeOptimal(ctx context.Context, p *sched.Placement, n int, opts Options) (*sched.Schedule, solver.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 0 {
		return nil, solver.Result{}, fmt.Errorf("core: micro-batch count must be non-negative, got %d", n)
	}
	opts = opts.withDefaults()
	tasks, err := solver.BuildTasks(p, solver.AllBlocks(p, n), nil)
	if err != nil {
		return nil, solver.Result{}, err
	}
	res, err := solver.Solve(ctx, tasks, solver.Options{
		NumDevices: p.NumDevices,
		Memory:     opts.Memory,
		MaxNodes:   opts.SolverNodes,
		Timeout:    opts.SolverTimeout,
		Workers:    solver.ResolveWorkers(opts.SolverWorkers),
	})
	if err != nil {
		return nil, res, err
	}
	if !res.Feasible {
		return nil, res, fmt.Errorf("time-optimal solve infeasible for %s with %d micro-batches", p.Name, n)
	}
	s, err := solver.ToSchedule(p, tasks, res)
	if err != nil {
		return nil, res, err
	}
	return s, res, nil
}
