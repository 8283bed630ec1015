// Package solver provides the exact schedule solver Tessel relies on — the
// role Z3 plays in the paper (§V, "Solver implementation"). Given a set of
// blocks with integer durations, memory deltas, device assignments, release
// times and precedence edges, it finds a minimum-makespan schedule (or any
// feasible schedule under a deadline) subject to the three constraint
// families of Equation 1: exclusive per-device execution, per-device memory
// capacity, and data dependencies.
//
// # Method
//
// The solver enumerates precedence-feasible block orders depth-first,
// scheduling each appended block at its earliest feasible start. Because
// memory in this model changes only at block *starts* (Equation 1 item [2]
// counts blocks with s_B < τ), per-device memory feasibility depends only on
// the start order of blocks on the device, so earliest-start replay of any
// feasible schedule's start order is itself feasible with no larger
// makespan. Enumerating all orders is therefore complete.
//
// The search loop is built for node throughput — its steady state performs
// no heap allocations:
//
//   - the eligible-task frontier is maintained *incrementally*: apply/undo
//     update a swap-remove frontier list on predecessor-count transitions
//     and Property 4.1 symmetry unlocks, instead of rescanning all tasks at
//     every node;
//   - candidates are ordered by an in-place insertion sort over a pooled
//     per-depth buffer (no sort.Slice closure per node);
//   - lower bounds run cheapest-first: device loads, the running maximum of
//     finish+tail over scheduled tasks (maintained in apply/undo), and a
//     static whole-instance critical-path bound computed once per solve are
//     consulted before the full critical-path bound, which itself walks
//     only the remaining tasks via an incrementally maintained topo-order
//     list;
//   - dominance memoization over (scheduled set, device availability,
//     finish times of scheduled tasks that still have *unscheduled*
//     successors) lives in an open-addressed table whose vectors are stored
//     in a growable arena (memo.go) and which resets by generation counter,
//     not reallocation. Restricting the state to components that can still
//     constrain a future start — a task whose successors are all scheduled
//     cannot — keeps the dominance sound while making it strictly stronger
//     than comparing every scheduled finish, which is what lets instances
//     that previously exhausted node budgets solve to proven optimality;
//   - searchers are recycled through a Pool (pool.go), so the hundreds of
//     instance solves of a repetend sweep stop rebuilding task graphs,
//     successor lists and memo tables from scratch.
//
// Pruning uses device-load and critical-path lower bounds, the dominance
// memo, and the micro-batch symmetry of Property 4.1 (same-stage blocks may
// start in increasing micro order without loss of optimality). Dominance
// pruning selects among equally-optimal schedules, so strengthening it can
// change which optimal start vector a solve returns (never its makespan,
// feasibility, or optimality verdicts); searches remain deterministic and
// worker-count independent.
//
// The problem is NP-hard (§III-B); the solver therefore accepts node and
// wall-clock budgets and reports whether the returned result is proven
// optimal. Figure 3 of the paper — search time exploding with the number of
// micro-batches — reproduces directly on this solver.
//
// # Cancellation
//
// Solve takes a context.Context and is the single point the whole search
// stack relies on for cancellation: the context's Done channel is polled
// every few hundred search nodes (a node costs well under a microsecond),
// so cancelling or exceeding the context deadline makes Solve return ctx's
// error promptly. A context cancellation is a hard stop and surfaces as an
// error; the per-call soft budgets (MaxNodes, Timeout) are different in
// kind — exhausting them returns the best incumbent found so far with
// Optimal=false and no error.
package solver

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// Unbounded mirrors sched.Unbounded for deadlines and memory capacities.
const Unbounded = sched.Unbounded

// Task is one block to schedule. Tasks are referenced by their index in the
// slice passed to Solve.
type Task struct {
	// ID identifies the block (stage, micro) this task represents; the
	// solver treats it as opaque except for Property 4.1 symmetry breaking,
	// which groups tasks by ID.Stage.
	ID sched.Block
	// Time is the execution duration (must be positive).
	Time int
	// Mem is the memory delta applied to each device in Devices at start.
	Mem int
	// Devices are the devices the task occupies exclusively while running.
	Devices []sched.DeviceID
	// Preds lists indices of tasks that must finish before this task starts.
	Preds []int
	// Release is the earliest admissible start time (0 if none); used to
	// model dependencies on blocks scheduled in an earlier phase.
	Release int
}

// Options configures a Solve call. The zero value means: devices inferred
// from tasks, unbounded memory, no deadline, full optimization, no budget.
type Options struct {
	// NumDevices is the device count D; if 0 it is inferred as 1 + the
	// maximum device id used by any task.
	NumDevices int
	// Memory is the per-device capacity M (Unbounded disables the check).
	// Zero means Unbounded for convenience.
	Memory int
	// InitialMem is per-device memory already in use at time 0 (nil = 0s).
	InitialMem []int
	// DeviceReady gives per-device earliest availability (nil = 0s), used
	// when composing phases.
	DeviceReady []int
	// Deadline, when positive, bounds the admissible makespan; schedules
	// ending after Deadline are rejected.
	Deadline int
	// SatisfyOnly stops at the first feasible schedule instead of proving
	// optimality — the satisfiability check of the paper's lazy search
	// optimization (§V).
	SatisfyOnly bool
	// MaxNodes bounds the number of search nodes (0 = unlimited). When the
	// budget is exhausted the best incumbent is returned with Optimal=false.
	MaxNodes int64
	// Timeout bounds wall-clock time (0 = unlimited), same fallback. Unlike
	// a context deadline — which aborts the solve with an error — exhausting
	// Timeout degrades gracefully to the incumbent.
	Timeout time.Duration
	// DisableSymmetry turns off Property 4.1 pruning (for ablations; the
	// pruning requires intra-micro dependencies and micro-monotone release
	// times per stage, which all Tessel phases satisfy).
	DisableSymmetry bool
	// DisableMemo turns off dominance memoization (for ablations).
	DisableMemo bool
	// UpperBound, when positive, seeds the incumbent: only schedules with
	// makespan strictly below it are accepted. Together with Deadline it is
	// the bound-pruned solve entry point: a caller holding an incumbent
	// solution elsewhere (e.g. the repetend sweep's best period) seeds both
	// and the search abandons any branch that cannot beat the incumbent.
	// When no schedule passes, Result.BoundPruned distinguishes "nothing
	// within the seeded bound" from absolute infeasibility.
	UpperBound int
	// Workers, when ≥ 1, runs the optimizing search as a deterministic
	// root-split across that many concurrent workers (parallel.go): the
	// Result — Starts, Makespan, verdict flags, and every effort counter
	// (Nodes, both memo-hit tiers, JobsStolen) — is byte-identical for
	// every Workers value ≥ 1, including 1. Zero or
	// negative keeps the single-threaded search (whose equally-optimal
	// schedule choice may differ from the split search's, since the
	// dominance memo is partitioned differently). SatisfyOnly solves are
	// always single-threaded: they stop at the first feasible schedule, a
	// race by construction. Use ResolveWorkers to map a caller-facing
	// setting (0 = sequential) to this field.
	Workers int
}

// Result reports the outcome of a Solve call.
type Result struct {
	// Feasible is true when a schedule satisfying all constraints (and the
	// deadline, if any) was found.
	Feasible bool
	// Optimal is true when the search space was exhausted, proving the
	// returned makespan minimal (always false if SatisfyOnly found early).
	Optimal bool
	// BoundPruned is true when Feasible is false but the verdict is only
	// relative to a caller-seeded bound (Options.UpperBound or Deadline):
	// no schedule within the bound exists (or was found before a budget
	// ran out), while the unbounded problem may still be feasible. Callers
	// treating the seeded bound as an external incumbent should read this
	// as "pruned", not "infeasible".
	BoundPruned bool
	// Makespan is the completion time of the best schedule found.
	Makespan int
	// Starts holds the start time per task (parallel to the input slice).
	Starts []int
	// Nodes is the number of unique search nodes expanded: every counted
	// node corresponds to one state the search processed exactly once in
	// the reported total. The parallel paths preserve this meaning — a
	// budget-reconciliation re-solve supersedes (not adds to) its first
	// pass, and a split probe pass whose subtree is re-searched by
	// sub-jobs is excluded — so Nodes is comparable across Workers
	// settings and is the numerator of nodes-per-second rates.
	Nodes int64
	// MemoHits is the number of nodes pruned by the job-private dominance
	// memo — the per-solve effectiveness measure of the memoization.
	MemoHits int64
	// SharedMemoHits is the number of nodes pruned by the cross-job shared
	// memo tier of the parallel search (disjoint from MemoHits; always 0
	// on the single-threaded path and when the memo is disabled).
	SharedMemoHits int64
	// JobsStolen is the number of root-split jobs whose subtree the
	// parallel search split further at a deterministic depth after the
	// job overran its first-pass node cap — the work-stealing counter.
	// Always 0 on the single-threaded path and on budgeted solves.
	JobsStolen int64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

type candidate struct {
	task  int
	start int
}

// frame is the per-depth scratch of one dfs level: the candidate buffer and
// the saved device-availability snapshot of the candidate being explored.
// Frames are indexed by depth (= nSched) and reused across the whole solve
// — and, through the searcher pool, across solves.
type frame struct {
	cands []candidate
	saved []int
}

type searcher struct {
	ctx   context.Context
	tasks []Task
	opts  Options
	d     int // device count
	n     int // task count

	// Static task-graph structure, rebuilt per solve into reused buffers.
	// Hot per-task scalars are flattened out of the Task structs and the
	// adjacency lists stored in CSR form, so the inner loops walk dense
	// int slices instead of chasing struct fields.
	time     []int
	release  []int
	mem      []int
	succOff  []int32 // CSR offsets into succList, len n+1
	succList []int32 // successor task indices, grouped by predecessor
	succCur  []int32 // CSR fill cursor (reset scratch)
	predOff  []int32 // CSR offsets into predList, len n+1
	predList []int32
	devOff   []int32 // CSR offsets into devList, len n+1
	devList  []int32 // device ids per task
	npred    []int   // predecessor counts
	tail     []int   // longest duration path through successors (excl. self)
	symPred  []int   // Property 4.1: same-stage task with next-smaller micro, or -1
	symSucc  []int   // inverse of symPred, or -1
	symOrder []int   // (stage, micro, index)-sorted task ids (reset scratch)
	topo     []int   // topological order of tasks
	topoPos  []int32 // task -> position in topo
	indeg    []int   // Kahn scratch
	hasSucc  []bool
	est      []int // critical-path scratch (pathBound)
	staticLB int   // critical-path lower bound over the whole instance

	// Doubly-linked list of *unscheduled* topo positions (sentinel at n),
	// maintained by apply/undo so pathBound walks only the remaining tasks.
	topoNext []int32
	topoPrev []int32

	// Dynamic search state, saved/restored incrementally by apply/undo.
	remWork  []int // per-device remaining duration of unscheduled tasks
	devAvail []int
	devMem   []int
	finish   []int // per task; -1 while unscheduled
	starts   []int
	sched    []bool
	predLeft []int // unscheduled predecessor count
	nSched   int
	makespan int
	maxTail  int // max finish[t]+tail[t] over scheduled tasks

	// frontier holds exactly the eligible tasks: unscheduled, all
	// predecessors scheduled, symmetry-unlocked. frontPos is each task's
	// index in frontier (-1 when absent); removal swaps with the last
	// element, so membership updates are O(1).
	frontier []int32
	frontPos []int32

	maskWords int
	mask      []uint64
	// liveMask marks tasks whose finish belongs in the dominance state:
	// scheduled with at least one *unscheduled* successor. A task whose
	// successors are all scheduled cannot constrain any future start, so
	// dropping its component keeps dominance sound while shortening
	// vectors and strictly strengthening the pruning. (For a fixed
	// scheduled-set mask the live set is a function of the mask, so
	// per-key vector layouts stay aligned.)
	liveMask    []uint64
	succUnsched []int32 // per task: number of unscheduled successors

	memo memoTable
	// sharedTier, when non-nil, is the parallel solve's read-mostly shared
	// memo tier: probed (read-only) before the private memo, immutable for
	// the duration of a job batch, mutated only by the coordinator between
	// batches. Hits are counted separately — the two tiers partition the
	// memo prunes.
	sharedTier     *memoTable
	memoHits       int64
	sharedMemoHits int64
	jobsStolen     int64
	vecScratch     []uint64 // scratch for packed dominance probes
	sketchShift    uint     // quantization shift for the memo sketch buckets
	// buckets holds the 8 partial sums of the dominance state (device
	// availabilities bucketed by dev&7, finishes of scheduled tasks with
	// successors by (d+task)&7), maintained incrementally by apply/undo so
	// a probe derives its sum and sketch without re-accumulating.
	buckets [8]int64

	frames []frame // per-depth candidate + saved-avail buffers

	// Greedy-dispatch scratch (greedy runs once per solve; reusing these
	// keeps the warm-start allocation-free too). gFront/gFrontPos mirror
	// the search frontier for the dispatch: the eligible tasks, maintained
	// incrementally so each pick scans candidates, not all n tasks.
	gSched    []bool
	gPredLeft []int
	gAvail    []int
	gMem      []int
	gFinish   []int
	gStarts   []int
	gFront    []int32
	gFrontPos []int32

	// Parallel root-split state (parallel.go). pool lets the root searcher
	// draw worker searchers from the pool that produced it; shared is the
	// cross-worker incumbent (publication only — pruning reads the frozen
	// batchBound below, never the live atomic); pathStack tracks the
	// expansion prefix;
	// the pfx* buffers save per-depth undo state when a worker replays a
	// job prefix; jobSeed* is the fixed incumbent seed restored per job.
	pool            *Pool
	shared          *sharedIncumbent
	pathStack       []int32
	pfxAvail        []int
	pfxOff          []int
	pfxMakespan     []int
	pfxMaxTail      []int
	jobSeedMakespan int
	jobSeedSet      bool
	// batchBound is the frozen cross-job pruning bound of the current job:
	// the best verified makespan of strictly earlier batches, assigned by
	// the coordinator when the job's batch is formed (pJob.bound). Jobs
	// never read the live shared incumbent — visibility of cross-job
	// improvements is batch-synchronous, like the shared memo tier — so a
	// job's node count is a pure function of the job sequence, identical
	// for every worker count. MaxInt/2 (no cross-job bound) outside
	// parallel solves.
	batchBound int

	best       Result
	bestStarts []int // incumbent start times, reused across improvements
	bestSet    bool
	deadline   int
	nodes      int64
	boundCut   bool // a caller-seeded UpperBound/Deadline rejected a branch
	truncated  bool
	cancelled  bool
	startTime  time.Time
	deadlineT  time.Time
	hasWallDL  bool
}

// Solve finds a schedule for the given tasks under opts. It never panics on
// well-formed input; malformed input (bad indices, non-positive durations)
// returns a zero Result and an error. Cancelling ctx (or passing one whose
// deadline has passed) aborts the solve promptly and returns ctx's error
// alongside the best incumbent found before the abort.
//
// Solve draws its searcher from a package-level Pool, so back-to-back
// solves reuse the task-graph, frontier, and memo storage of earlier ones.
func Solve(ctx context.Context, tasks []Task, opts Options) (Result, error) {
	return defaultPool.Solve(ctx, tasks, opts)
}

// solve runs one full solve on this searcher, re-initializing every piece
// of state. It is the engine behind Solve and Pool.Solve.
func (s *searcher) solve(ctx context.Context, tasks []Task, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := faultpoint.Inject(faultpoint.SolverSolve); err != nil {
		return Result{}, err
	}
	if len(tasks) == 0 {
		return Result{Feasible: true, Optimal: true}, nil
	}
	if err := s.reset(ctx, tasks, opts); err != nil {
		s.releaseRefs()
		return Result{}, err
	}
	if opts.Workers >= 1 && !opts.SatisfyOnly && s.n >= 2 {
		s.runParallel()
	} else {
		s.run()
	}
	s.best.Nodes = s.nodes
	s.best.MemoHits = s.memoHits
	s.best.SharedMemoHits = s.sharedMemoHits
	s.best.JobsStolen = s.jobsStolen
	s.best.Elapsed = time.Since(s.startTime)
	s.best.Optimal = s.bestSet && !s.truncated && !(opts.SatisfyOnly)
	if opts.SatisfyOnly && s.bestSet {
		// A satisfying schedule is "optimal" in the sense the caller asked
		// for: it answers the satisfiability query definitively.
		s.best.Optimal = true
	}
	if !s.bestSet && !s.truncated {
		// Exhausted the space without a solution: proven infeasible.
		s.best.Optimal = true
	}
	if !s.best.Feasible && s.boundCut {
		// Only bound-relative: a seeded bound rejected at least one branch,
		// so the unbounded problem may still be feasible. An exhausted
		// search that never hit the bound is absolute infeasibility and is
		// reported as such even when a bound was passed.
		s.best.BoundPruned = true
	}
	if s.bestSet {
		// The incumbent lives in reused scratch; hand the caller a copy it
		// owns (the single steady-state allocation of a solve).
		s.best.Starts = append([]int(nil), s.bestStarts...)
	}
	res := s.best
	s.releaseRefs()
	s.best = Result{}
	if s.cancelled {
		res.Optimal = false
		return res, ctx.Err()
	}
	return res, nil
}

// releaseRefs drops every reference a searcher holds into caller memory —
// the context, the task slice (with its device and predecessor lists), and
// the option slices — so a pooled searcher does not pin them until its
// next use. Called on every solve exit path, including reset failures.
func (s *searcher) releaseRefs() {
	s.ctx, s.tasks = nil, nil
	s.opts = Options{}
	s.pool, s.shared, s.sharedTier = nil, nil, nil
}

// --- buffer reuse helpers --------------------------------------------------

func intsN(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func int32sN(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func boolsN(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// reset validates the input and rebuilds every searcher structure for it,
// reusing the buffers of previous solves wherever capacities allow.
func (s *searcher) reset(ctx context.Context, tasks []Task, opts Options) error {
	d := opts.NumDevices
	for i := range tasks {
		if tasks[i].Time <= 0 {
			return fmt.Errorf("task %d: non-positive duration %d", i, tasks[i].Time)
		}
		if len(tasks[i].Devices) == 0 {
			return fmt.Errorf("task %d: no devices", i)
		}
		for _, dev := range tasks[i].Devices {
			if dev < 0 {
				return fmt.Errorf("task %d: negative device %d", i, dev)
			}
			if int(dev)+1 > d {
				d = int(dev) + 1
			}
		}
		for _, p := range tasks[i].Preds {
			if p < 0 || p >= len(tasks) || p == i {
				return fmt.Errorf("task %d: bad predecessor index %d", i, p)
			}
		}
	}
	n := len(tasks)
	s.ctx, s.tasks, s.opts, s.d, s.n = ctx, tasks, opts, d, n
	if opts.Memory == 0 {
		s.opts.Memory = Unbounded
	}
	s.deadline = opts.Deadline
	if s.deadline <= 0 {
		s.deadline = Unbounded
	}

	// Flatten the hot per-task scalars and store predecessor, successor and
	// device lists in CSR form.
	s.time = intsN(s.time, n)
	s.release = intsN(s.release, n)
	s.mem = intsN(s.mem, n)
	s.npred = intsN(s.npred, n)
	s.succOff = int32sN(s.succOff, n+1)
	s.predOff = int32sN(s.predOff, n+1)
	s.devOff = int32sN(s.devOff, n+1)
	s.succCur = int32sN(s.succCur, n)
	edges, devRefs := 0, 0
	for i := range tasks {
		s.time[i] = tasks[i].Time
		s.release[i] = tasks[i].Release
		s.mem[i] = tasks[i].Mem
		s.npred[i] = len(tasks[i].Preds)
		edges += len(tasks[i].Preds)
		devRefs += len(tasks[i].Devices)
	}
	s.predOff[0], s.devOff[0] = 0, 0
	for i := range tasks {
		s.predOff[i+1] = s.predOff[i] + int32(len(tasks[i].Preds))
		s.devOff[i+1] = s.devOff[i] + int32(len(tasks[i].Devices))
	}
	s.predList = int32sN(s.predList, edges)
	s.devList = int32sN(s.devList, devRefs)
	for i := range tasks {
		off := s.predOff[i]
		for j, p := range tasks[i].Preds {
			s.predList[off+int32(j)] = int32(p)
		}
		off = s.devOff[i]
		for j, dev := range tasks[i].Devices {
			s.devList[off+int32(j)] = int32(dev)
		}
	}
	clear(s.succCur[:n])
	for i := range tasks {
		for _, p := range tasks[i].Preds {
			s.succCur[p]++
		}
	}
	s.succOff[0] = 0
	for i := 0; i < n; i++ {
		s.succOff[i+1] = s.succOff[i] + s.succCur[i]
	}
	s.succList = int32sN(s.succList, edges)
	copy(s.succCur, s.succOff[:n])
	for i := range tasks {
		for _, p := range tasks[i].Preds {
			s.succList[s.succCur[p]] = int32(i)
			s.succCur[p]++
		}
	}
	s.hasSucc = boolsN(s.hasSucc, n)
	for i := 0; i < n; i++ {
		s.hasSucc[i] = s.succOff[i+1] > s.succOff[i]
	}

	// Topological order (Kahn; also detects cycles).
	s.topo = intsN(s.topo, n)[:0]
	s.indeg = intsN(s.indeg, n)
	copy(s.indeg, s.npred)
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			s.topo = append(s.topo, i)
		}
	}
	for head := 0; head < len(s.topo); head++ {
		u := s.topo[head]
		for _, v := range s.succList[s.succOff[u]:s.succOff[u+1]] {
			s.indeg[v]--
			if s.indeg[v] == 0 {
				s.topo = append(s.topo, int(v))
			}
		}
	}
	if len(s.topo) != n {
		return fmt.Errorf("dependency graph has a cycle")
	}

	// Tail lengths: longest duration path strictly below each task.
	s.tail = intsN(s.tail, n)
	clear(s.tail)
	for idx := n - 1; idx >= 0; idx-- {
		u := s.topo[idx]
		for _, v := range s.succList[s.succOff[u]:s.succOff[u+1]] {
			if t := s.time[v] + s.tail[v]; t > s.tail[u] {
				s.tail[u] = t
			}
		}
	}

	// Unscheduled-task list in topo order: topoPos maps tasks to positions,
	// position n is the sentinel. pathBound walks this list, so its cost
	// tracks the number of *remaining* tasks, not n.
	s.topoPos = int32sN(s.topoPos, n)
	for idx, u := range s.topo {
		s.topoPos[u] = int32(idx)
	}
	s.topoNext = int32sN(s.topoNext, n+1)
	s.topoPrev = int32sN(s.topoPrev, n+1)
	for i := 0; i <= n; i++ {
		s.topoNext[i] = int32((i + 1) % (n + 1))
		s.topoPrev[i] = int32((i + n) % (n + 1))
	}

	// Property 4.1 chains: within each stage, link tasks in micro order.
	// Sorting by (stage, micro, index) groups stages contiguously; an
	// insertion sort into a reused buffer keeps this allocation-free.
	s.symPred = intsN(s.symPred, n)
	s.symSucc = intsN(s.symSucc, n)
	for i := 0; i < n; i++ {
		s.symPred[i] = -1
		s.symSucc[i] = -1
	}
	if !opts.DisableSymmetry {
		s.symOrder = intsN(s.symOrder, n)
		for i := 0; i < n; i++ {
			s.symOrder[i] = i
		}
		less := func(a, b int) bool {
			sa, sb := tasks[a].ID.Stage, tasks[b].ID.Stage
			if sa != sb {
				return sa < sb
			}
			ma, mb := tasks[a].ID.Micro, tasks[b].ID.Micro
			if ma != mb {
				return ma < mb
			}
			return a < b
		}
		for i := 1; i < n; i++ {
			v := s.symOrder[i]
			j := i - 1
			for j >= 0 && less(v, s.symOrder[j]) {
				s.symOrder[j+1] = s.symOrder[j]
				j--
			}
			s.symOrder[j+1] = v
		}
		for k := 1; k < n; k++ {
			prev, cur := s.symOrder[k-1], s.symOrder[k]
			if tasks[prev].ID.Stage == tasks[cur].ID.Stage &&
				tasks[prev].ID.Micro != tasks[cur].ID.Micro {
				s.symPred[cur] = prev
				s.symSucc[prev] = cur
			}
		}
	}

	// Dynamic state.
	s.remWork = intsN(s.remWork, d)
	clear(s.remWork)
	for i := range tasks {
		for _, dev := range tasks[i].Devices {
			s.remWork[dev] += tasks[i].Time
		}
	}
	s.devAvail = intsN(s.devAvail, d)
	clear(s.devAvail)
	if opts.DeviceReady != nil {
		copy(s.devAvail, opts.DeviceReady)
	}
	s.devMem = intsN(s.devMem, d)
	clear(s.devMem)
	if opts.InitialMem != nil {
		copy(s.devMem, opts.InitialMem)
	}
	s.finish = intsN(s.finish, n)
	s.starts = intsN(s.starts, n)
	for i := 0; i < n; i++ {
		s.finish[i] = -1
		s.starts[i] = -1
	}
	s.sched = boolsN(s.sched, n)
	clear(s.sched)
	s.predLeft = intsN(s.predLeft, n)
	copy(s.predLeft, s.npred)
	s.nSched = 0
	s.makespan = 0
	s.maxTail = 0

	s.maskWords = (n + 63) / 64
	s.mask = maskN(s.mask, s.maskWords)
	s.liveMask = maskN(s.liveMask, s.maskWords)
	s.succUnsched = int32sN(s.succUnsched, n)
	for i := 0; i < n; i++ {
		s.succUnsched[i] = s.succOff[i+1] - s.succOff[i]
	}
	if !opts.DisableMemo {
		s.memo.reset(s.maskWords)
	}
	s.sharedTier = nil
	s.memoHits = 0
	s.sharedMemoHits = 0
	s.jobsStolen = 0

	// Frontier: initially the symmetry-unlocked roots.
	s.frontPos = int32sN(s.frontPos, n)
	for i := 0; i < n; i++ {
		s.frontPos[i] = -1
	}
	if cap(s.frontier) < n {
		s.frontier = make([]int32, 0, n)
	} else {
		s.frontier = s.frontier[:0]
	}
	for t := 0; t < n; t++ {
		if s.predLeft[t] == 0 && s.symPred[t] < 0 {
			s.frontPush(t)
		}
	}

	clear(s.buckets[:])
	for dev := 0; dev < d; dev++ {
		s.buckets[dev&7] += int64(s.devAvail[dev])
	}

	// Static critical-path lower bound: pathBound over the full instance,
	// computed once. At every node the incremental bounds (device loads,
	// maxTail, staticLB) are tried first and the full pathBound runs only
	// when they fail to prune; each is a sound lower bound on any
	// completion of the node, so no node pathBound would keep is lost.
	s.est = intsN(s.est, n)
	s.staticLB = s.pathBound()

	// Per-depth frames.
	for len(s.frames) < n+1 {
		s.frames = append(s.frames, frame{})
	}

	s.best = Result{Makespan: math.MaxInt / 2}
	if opts.UpperBound > 0 {
		s.best.Makespan = opts.UpperBound
	}
	s.batchBound = math.MaxInt / 2
	s.bestSet = false
	s.nodes = 0
	s.boundCut = false
	s.truncated = false
	s.cancelled = false
	//tessel:waive:determinism wall-clock anchors the optional search budget; it only decides truncation, which is reported via Truncated
	s.startTime = time.Now()
	s.hasWallDL = false
	if opts.Timeout > 0 {
		s.deadlineT = s.startTime.Add(opts.Timeout)
		s.hasWallDL = true
	}
	return nil
}

// maskN reuses a []uint64 mask buffer and zeroes it.
func maskN(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *searcher) run() {
	// Seed the incumbent with a greedy dispatch so pruning bites early.
	if starts, ms, ok := s.greedy(); ok {
		if ms < s.best.Makespan && ms <= s.deadline {
			s.record(starts, ms)
			if s.opts.SatisfyOnly {
				return
			}
		} else {
			s.boundCut = true // feasible dispatch rejected by a seeded bound
		}
	}
	if !s.opts.DisableMemo {
		s.setSketchScale()
	}
	s.dfs()
}

// cutByBound reports (and records) whether a lower bound lb on the current
// branch is rejected by a caller-seeded bound — the deadline, or the
// UpperBound-seeded incumbent before any real schedule was found.
// Rejections against a *found* incumbent are regular optimality pruning,
// not bound cuts.
//
//tessel:noalloc
func (s *searcher) cutByBound(lb int) bool {
	if lb > s.deadline || (!s.bestSet && lb >= s.best.Makespan) {
		s.boundCut = true
		return true
	}
	return false
}

// cutoff reports whether a branch with lower bound lb cannot strictly
// improve the incumbent. On the single-threaded path that is the local
// incumbent alone; a parallel job additionally prunes against its frozen
// batch bound (the best makespan of strictly earlier batches) — with a
// *strict* comparison, so branches that tie the bound survive and every
// job still finds its first optimal-makespan schedule in DFS order (the
// determinism of the merged Starts vector rests on this). The bound is
// deliberately not the live shared incumbent: a live read would make the
// node count depend on publication timing, i.e. on the worker count.
//
//tessel:noalloc
func (s *searcher) cutoff(lb int) bool {
	if lb >= s.best.Makespan {
		return true
	}
	return lb > s.batchBound
}

//tessel:noalloc
func (s *searcher) record(starts []int, makespan int) {
	s.best.Feasible = true
	s.best.Makespan = makespan
	s.bestStarts = append(s.bestStarts[:0], starts...)
	s.bestSet = true
	if s.shared != nil {
		// The schedule is complete and satisfied every constraint and bound
		// check — verified — so it may be published to the other workers.
		s.shared.offer(makespan, s.bestStarts)
	}
}

// greedy runs a deterministic list-scheduling dispatch: always append the
// eligible task with the smallest start time, breaking ties by the longest
// tail, then the lowest task index. It respects every constraint, so any
// complete dispatch is feasible. Eligibility is maintained incrementally in
// a frontier (like the search's), so each pick scans the eligible tasks
// instead of rescanning all n — the dispatch is O(n·frontier), not O(n²).
// All working state lives in searcher scratch buffers.
//
//tessel:noalloc
func (s *searcher) greedy() ([]int, int, bool) {
	n := s.n
	s.gSched = boolsN(s.gSched, n)
	clear(s.gSched)
	s.gPredLeft = intsN(s.gPredLeft, n)
	copy(s.gPredLeft, s.npred)
	s.gAvail = intsN(s.gAvail, s.d)
	copy(s.gAvail, s.devAvail)
	s.gMem = intsN(s.gMem, s.d)
	copy(s.gMem, s.devMem)
	s.gFinish = intsN(s.gFinish, n)
	s.gStarts = intsN(s.gStarts, n)
	s.gFrontPos = int32sN(s.gFrontPos, n)
	for i := 0; i < n; i++ {
		s.gFrontPos[i] = -1
	}
	if cap(s.gFront) < n {
		s.gFront = make([]int32, 0, n)
	} else {
		s.gFront = s.gFront[:0]
	}
	for t := 0; t < n; t++ {
		if s.gPredLeft[t] == 0 && s.symPred[t] < 0 {
			s.gFrontPos[t] = int32(len(s.gFront))
			s.gFront = append(s.gFront, int32(t))
		}
	}
	makespan := 0
	for done := 0; done < n; done++ {
		// The frontier holds the precedence- and symmetry-eligible tasks in
		// arbitrary order; the explicit index tiebreak keeps the pick — and
		// with it the whole dispatch — order-independent.
		bestT, bestStart := -1, 0
		for _, t32 := range s.gFront {
			t := int(t32)
			devs := s.devList[s.devOff[t]:s.devOff[t+1]]
			ok := true
			for _, dev := range devs {
				if s.gMem[dev]+s.mem[t] > s.opts.Memory {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			st := s.release[t]
			for _, dev := range devs {
				if s.gAvail[dev] > st {
					st = s.gAvail[dev]
				}
			}
			for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
				if s.gFinish[p] > st {
					st = s.gFinish[p]
				}
			}
			if bestT < 0 || st < bestStart ||
				(st == bestStart && (s.tail[t] > s.tail[bestT] ||
					(s.tail[t] == s.tail[bestT] && t < bestT))) {
				bestT, bestStart = t, st
			}
		}
		if bestT < 0 {
			return nil, 0, false // memory deadlock under greedy order
		}
		t := bestT
		s.gSched[t] = true
		i := s.gFrontPos[t]
		last := int32(len(s.gFront) - 1)
		moved := s.gFront[last]
		s.gFront[i] = moved
		s.gFrontPos[moved] = i
		s.gFront = s.gFront[:last]
		s.gFrontPos[t] = -1
		s.gStarts[t] = bestStart
		s.gFinish[t] = bestStart + s.time[t]
		if s.gFinish[t] > makespan {
			makespan = s.gFinish[t]
		}
		for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
			s.gAvail[dev] = s.gFinish[t]
			s.gMem[dev] += s.mem[t]
		}
		for _, v := range s.succList[s.succOff[t]:s.succOff[t+1]] {
			s.gPredLeft[v]--
			if s.gPredLeft[v] == 0 && (s.symPred[v] < 0 || s.gSched[s.symPred[v]]) {
				s.gFrontPos[v] = int32(len(s.gFront))
				s.gFront = append(s.gFront, v)
			}
		}
		if ss := s.symSucc[t]; ss >= 0 && s.gPredLeft[ss] == 0 && s.gFrontPos[ss] < 0 {
			s.gFrontPos[ss] = int32(len(s.gFront))
			s.gFront = append(s.gFront, int32(ss))
		}
	}
	return s.gStarts, makespan, true
}

//tessel:noalloc
func (s *searcher) outOfBudget() bool {
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		return true
	}
	if s.nodes%256 == 0 {
		select {
		case <-s.ctx.Done():
			s.cancelled = true
			return true
		default:
		}
		//tessel:waive:determinism wall-clock deadline check of the optional search budget; it only decides truncation, reported via Truncated
		if s.hasWallDL && time.Now().After(s.deadlineT) {
			return true
		}
	}
	return false
}

// pathBound is the critical-path lower bound: earliest start estimates over
// unscheduled tasks in topological order (ignoring device contention and
// memory, which keeps it a valid lower bound) plus tail lengths. It walks
// the incrementally maintained unscheduled list, so its cost shrinks with
// search depth. The array hoisting matters: this is the hottest loop of
// the search.
//
//tessel:noalloc
func (s *searcher) pathBound() int {
	topo, topoNext := s.topo, s.topoNext
	devOff, devList := s.devOff, s.devList
	predOff, predList := s.predOff, s.predList
	est, dur, tail, release := s.est, s.time, s.tail, s.release
	devAvail, finish, sched := s.devAvail, s.finish, s.sched
	lb := 0
	sentinel := int32(s.n)
	for pos := topoNext[sentinel]; pos != sentinel; pos = topoNext[pos] {
		u := topo[pos]
		e := release[u]
		for di, de := devOff[u], devOff[u+1]; di < de; di++ {
			if a := devAvail[devList[di]]; a > e {
				e = a
			}
		}
		for pi, pend := predOff[u], predOff[u+1]; pi < pend; pi++ {
			p := predList[pi]
			var pf int
			if sched[p] {
				pf = finish[p]
			} else {
				pf = est[p] + dur[p]
			}
			if pf > e {
				e = pf
			}
		}
		est[u] = e
		if b := e + dur[u] + tail[u]; b > lb {
			lb = b
		}
	}
	return lb
}

// fillStateVector writes the dominance state into dst, packed two int32
// components per word for the memo's lane-parallel compare: device
// availability plus finish times of scheduled tasks that still have
// successors (walked via the scheduled-set bitmask). Componentwise-≤ states
// dominate.
//
//tessel:noalloc
func (s *searcher) fillStateVector(dst []uint64) []uint64 {
	dst = dst[:0]
	cur := uint64(0)
	k := 0
	for dev := 0; dev < s.d; dev++ {
		a := s.devAvail[dev]
		if k&1 == 0 {
			cur = uint64(uint32(a))
		} else {
			dst = append(dst, cur|uint64(uint32(a))<<32)
		}
		k++
	}
	finish := s.finish
	for w := 0; w < s.maskWords; w++ {
		word := s.liveMask[w]
		base := w << 6
		for word != 0 {
			f := finish[base+bits.TrailingZeros64(word)]
			if k&1 == 0 {
				cur = uint64(uint32(f))
			} else {
				dst = append(dst, cur|uint64(uint32(f))<<32)
			}
			k++
			word &= word - 1
		}
	}
	if k&1 == 1 {
		dst = append(dst, cur)
	}
	return dst
}

// sketchAndSum derives the memo pre-filter values from the incrementally
// maintained buckets: the total component sum and the 8-lane quantized
// sketch.
//
//tessel:noalloc
func (s *searcher) sketchAndSum() (uint64, int64) {
	sum := int64(0)
	sketch := uint64(0)
	shift := s.sketchShift
	for b := 0; b < 8; b++ {
		v := s.buckets[b]
		sum += v
		q := v >> shift
		if q > 127 {
			q = 127
		}
		sketch |= uint64(q) << (8 * b)
	}
	return sketch, sum
}

// setSketchScale picks the quantization shift for the memo sketch from the
// incumbent makespan (the ceiling on every state-vector component): bucket
// sums must land in 0..127 for the 8-bit lanes. The shift is fixed for the
// whole solve — entries and probes must quantize identically.
func (s *searcher) setSketchScale() {
	ceiling := int64(s.staticLB)
	if s.bestSet || s.opts.UpperBound > 0 {
		ceiling = int64(s.best.Makespan)
	}
	nSucc := 0
	for i := 0; i < s.n; i++ {
		if s.hasSucc[i] {
			nSucc++
		}
	}
	perBucket := int64((s.d+nSucc+7)/8) * ceiling
	s.sketchShift = 0
	for perBucket>>s.sketchShift > 127 {
		s.sketchShift++
	}
}

// --- frontier maintenance --------------------------------------------------

//tessel:noalloc
func (s *searcher) frontPush(t int) {
	s.frontPos[t] = int32(len(s.frontier))
	s.frontier = append(s.frontier, int32(t))
}

//tessel:noalloc
func (s *searcher) frontRemove(t int) {
	i := s.frontPos[t]
	last := int32(len(s.frontier) - 1)
	moved := s.frontier[last]
	s.frontier[i] = moved
	s.frontPos[moved] = i
	s.frontier = s.frontier[:last]
	s.frontPos[t] = -1
}

// frontSync makes task t's frontier membership match its eligibility. It is
// idempotent, so apply/undo can call it for every task whose eligibility
// inputs (predLeft, symmetry predecessor) they touched.
//
//tessel:noalloc
func (s *searcher) frontSync(t int) {
	eligible := !s.sched[t] && s.predLeft[t] == 0 &&
		(s.symPred[t] < 0 || s.sched[s.symPred[t]])
	if eligible {
		if s.frontPos[t] < 0 {
			s.frontPush(t)
		}
	} else if s.frontPos[t] >= 0 {
		s.frontRemove(t)
	}
}

// --- the search ------------------------------------------------------------

// prunedOrMemo runs the per-node pruning pipeline — incremental lower
// bounds, dominance memo, critical-path bound — exactly once per expanded
// node and reports whether the node is pruned. Shared between dfs and the
// parallel prefix expansion so both search the identical tree.
//
//tessel:noalloc
func (s *searcher) prunedOrMemo() bool {
	// Lower bounds, cheapest first: device loads, the running max of
	// finish+tail over scheduled tasks (dominated by pathBound), and the
	// static whole-instance critical path (a sound global bound on any
	// completion). Consulting them first lets most pruned nodes skip the
	// full critical-path recomputation.
	lb := s.makespan
	for dev := 0; dev < s.d; dev++ {
		if b := s.devAvail[dev] + s.remWork[dev]; b > lb {
			lb = b
		}
	}
	if s.maxTail > lb {
		lb = s.maxTail
	}
	if s.staticLB > lb {
		lb = s.staticLB
	}
	if s.cutByBound(lb) || s.cutoff(lb) {
		return true
	}
	// Dominance memo and critical path, cheapest-expected-first: with an
	// incumbent and no deadline the bound flags cannot be affected by which
	// check fires, so the memo probe (often a hit) runs before the heavier
	// pathBound walk; otherwise the original order is kept — and the state
	// vector is only built once pathBound keeps the node — so the
	// BoundPruned accounting stays exact. Either way a state is inserted
	// into the memo iff its probe missed and pathBound kept the node — the
	// same set of states the non-reordered search memoizes.
	if !s.opts.DisableMemo {
		// The shared tier (parallel solves only) is probed read-only right
		// before the private memo: a shared hit means an earlier job's
		// fully-explored subtree dominates this state, so the node is
		// pruned without touching — or growing — the private memo. The two
		// tiers therefore partition the memo prunes (MemoHits vs
		// SharedMemoHits) and a state enters the private memo only when
		// both tiers missed.
		if s.bestSet && s.deadline == Unbounded {
			vec := s.fillStateVector(s.vecScratch)
			s.vecScratch = vec
			sketch, vsum := s.sketchAndSum()
			if s.sharedTier != nil && s.sharedTier.probeRO(s.mask, vec, vsum, sketch) {
				s.sharedMemoHits++
				return true
			}
			if s.memo.probe(s.mask, vec, vsum, sketch) {
				s.memoHits++
				return true
			}
			if lb := s.pathBound(); s.cutByBound(lb) || s.cutoff(lb) {
				return true
			}
			s.memo.insert(s.mask, vec, vsum, sketch)
		} else {
			if lb := s.pathBound(); s.cutByBound(lb) || s.cutoff(lb) {
				return true
			}
			vec := s.fillStateVector(s.vecScratch)
			s.vecScratch = vec
			sketch, vsum := s.sketchAndSum()
			if s.sharedTier != nil && s.sharedTier.probeRO(s.mask, vec, vsum, sketch) {
				s.sharedMemoHits++
				return true
			}
			if s.memo.probe(s.mask, vec, vsum, sketch) {
				s.memoHits++
				return true
			}
			s.memo.insert(s.mask, vec, vsum, sketch)
		}
	} else if lb := s.pathBound(); s.cutByBound(lb) || s.cutoff(lb) {
		return true
	}
	return false
}

// collectCandidates gathers this node's candidates from the incrementally
// maintained frontier into the depth's reusable buffer, insertion-sorting
// as it goes: smallest start first, then longest tail, then task index — a
// total order, so the expansion order is independent of frontier layout.
//
//tessel:noalloc
func (s *searcher) collectCandidates() []candidate {
	fr := &s.frames[s.nSched]
	cands := fr.cands[:0]
	for _, t32 := range s.frontier {
		t := int(t32)
		devs := s.devList[s.devOff[t]:s.devOff[t+1]]
		memOK := true
		for _, dev := range devs {
			if s.devMem[dev]+s.mem[t] > s.opts.Memory {
				memOK = false
				break
			}
		}
		if !memOK {
			continue
		}
		st := s.release[t]
		for _, dev := range devs {
			if s.devAvail[dev] > st {
				st = s.devAvail[dev]
			}
		}
		for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
			if s.finish[p] > st {
				st = s.finish[p]
			}
		}
		if lb := st + s.time[t] + s.tail[t]; s.cutByBound(lb) || s.cutoff(lb) {
			continue
		}
		c := candidate{task: t, start: st}
		j := len(cands) - 1
		cands = append(cands, c)
		for ; j >= 0; j-- {
			prev := cands[j]
			if prev.start < c.start {
				break
			}
			if prev.start == c.start {
				if s.tail[prev.task] > s.tail[c.task] {
					break
				}
				if s.tail[prev.task] == s.tail[c.task] && prev.task < c.task {
					break
				}
			}
			cands[j+1] = prev
		}
		cands[j+1] = c
	}
	fr.cands = cands
	return cands
}

//tessel:noalloc
func (s *searcher) dfs() {
	s.nodes++
	if s.outOfBudget() {
		s.truncated = true
		return
	}
	if s.nSched == s.n {
		if s.makespan <= s.deadline && s.makespan < s.best.Makespan {
			s.record(s.starts, s.makespan)
		} else {
			s.cutByBound(s.makespan)
		}
		return
	}
	if s.opts.SatisfyOnly && s.bestSet {
		return
	}
	if s.prunedOrMemo() {
		return
	}
	cands := s.collectCandidates()
	fr := &s.frames[s.nSched]
	for i := range cands {
		c := cands[i]
		devs := s.devList[s.devOff[c.task]:s.devOff[c.task+1]]
		saved := fr.saved[:0]
		for _, dev := range devs {
			saved = append(saved, s.devAvail[dev])
		}
		fr.saved = saved
		savedMakespan := s.makespan
		savedMaxTail := s.maxTail
		s.apply(c)
		s.dfs()
		s.undo(c, fr.saved, savedMakespan, savedMaxTail)
		if s.truncated || (s.opts.SatisfyOnly && s.bestSet) {
			return
		}
	}
}

//tessel:noalloc
func (s *searcher) apply(c candidate) {
	t := c.task
	s.frontRemove(t)
	pos := s.topoPos[t]
	s.topoNext[s.topoPrev[pos]] = s.topoNext[pos]
	s.topoPrev[s.topoNext[pos]] = s.topoPrev[pos]
	s.sched[t] = true
	s.mask[t>>6] |= 1 << (uint(t) & 63)
	s.starts[t] = c.start
	f := c.start + s.time[t]
	s.finish[t] = f
	if f > s.makespan {
		s.makespan = f
	}
	if b := f + s.tail[t]; b > s.maxTail {
		s.maxTail = b
	}
	for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		s.buckets[dev&7] += int64(f - s.devAvail[dev])
		s.devAvail[dev] = f
		s.devMem[dev] += s.mem[t]
		s.remWork[dev] -= s.time[t]
	}
	if s.hasSucc[t] {
		// All of t's successors are necessarily unscheduled here.
		s.buckets[(s.d+t)&7] += int64(f)
		s.liveMask[t>>6] |= 1 << (uint(t) & 63)
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		s.succUnsched[p]--
		if s.succUnsched[p] == 0 && s.sched[p] {
			// p's last successor just got scheduled: its finish no longer
			// constrains anything unscheduled.
			s.buckets[(s.d+int(p))&7] -= int64(s.finish[p])
			s.liveMask[p>>6] &^= 1 << (uint(p) & 63)
		}
	}
	for _, v := range s.succList[s.succOff[t]:s.succOff[t+1]] {
		s.predLeft[v]--
		if s.predLeft[v] == 0 {
			s.frontSync(int(v))
		}
	}
	if ss := s.symSucc[t]; ss >= 0 {
		s.frontSync(ss)
	}
	s.nSched++
}

//tessel:noalloc
func (s *searcher) undo(c candidate, savedAvail []int, savedMakespan, savedMaxTail int) {
	t := c.task
	s.nSched--
	if s.hasSucc[t] {
		s.buckets[(s.d+t)&7] -= int64(s.finish[t])
		s.liveMask[t>>6] &^= 1 << (uint(t) & 63)
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		if s.succUnsched[p] == 0 && s.sched[p] {
			s.buckets[(s.d+int(p))&7] += int64(s.finish[p])
			s.liveMask[p>>6] |= 1 << (uint(p) & 63)
		}
		s.succUnsched[p]++
	}
	for _, v := range s.succList[s.succOff[t]:s.succOff[t+1]] {
		s.predLeft[v]++
		s.frontSync(int(v))
	}
	for i, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		s.devMem[dev] -= s.mem[t]
		s.remWork[dev] += s.time[t]
		s.buckets[dev&7] += int64(savedAvail[i] - s.devAvail[dev])
		s.devAvail[dev] = savedAvail[i]
	}
	s.sched[t] = false
	s.mask[t>>6] &^= 1 << (uint(t) & 63)
	s.starts[t] = -1
	s.finish[t] = -1
	s.makespan = savedMakespan
	s.maxTail = savedMaxTail
	// Relink t's topo position; LIFO undo order makes the stored prev/next
	// pointers valid again.
	pos := s.topoPos[t]
	s.topoNext[s.topoPrev[pos]] = pos
	s.topoPrev[s.topoNext[pos]] = pos
	if ss := s.symSucc[t]; ss >= 0 {
		s.frontSync(ss)
	}
	s.frontSync(t)
}
