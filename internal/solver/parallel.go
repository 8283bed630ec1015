package solver

// Deterministic parallel branch-and-bound: the root searcher expands the
// search tree serially to a small split depth — with exactly the pruning,
// candidate ordering and dominance memoization of the sequential search —
// and captures the surviving depth-D prefixes as a job list in DFS order.
// Jobs then run in batches of increasing size: per batch, W workers pull
// jobs from an atomic cursor, each running a full pooled searcher (own
// frontier, frames, dominance memo, reset per job) over its subtree
// against a shared atomic incumbent, and the results are merged back in
// job enumeration order with the same first-strict-improvement discipline
// the sequential DFS applies.
//
// Shared memo tier. Job-private memos re-derive each other's dominance
// facts, which is where jobs mode historically overspent nodes (9.3× on
// nmb6). Each parallel solve therefore keeps a second memoTable shared by
// every worker in two strictly alternating phases: during a batch the
// tier is immutable and workers probe it read-only (probeRO) before their
// private memo; between batches — after the wg.Wait barrier, before the
// next batch's goroutines spawn, so plain happens-before ordering with no
// atomics on the probe path — the coordinator promotes the private-memo
// entries of the batch's fully-explored jobs into it, in job order. Only
// jobs that ran to completion promote (a truncated or cancelled job's
// memo describes partially-explored subtrees, which must not prune other
// jobs), so a shared hit always means "an earlier, fully-searched subtree
// dominates this state" — the same soundness argument the private memo
// makes, with "earlier in this job's DFS" widened to "earlier in job
// order". The tier is seeded with the expansion-phase memo before the
// first batch; because dominance only relates equal scheduled-set masks
// (hence equal cardinality), those depth-≤D seeds cannot prune the
// strictly deeper job nodes — the seeding is structural (jobs start from
// everything the planner proved), while the measured node savings come
// from the cross-job promotions.
//
// Work stealing below the root split. The root split's skew caps speedup
// (the largest nmb6 job used to be 66k of 618k nodes), and a reactive
// steal — splitting whichever job is in flight when a worker goes idle —
// would be timing-dependent. Stealing is instead expressed as
// deterministic cap-triggered splitting: on unbudgeted solves every
// round-1 job first runs under a fixed node cap (splitNodeCap); a job
// that truncates at the cap is declared oversized, its probe pass is
// discarded (results and node counts — the sub-jobs re-search that
// subtree, keeping Result.Nodes a count of unique nodes), and between
// batches the coordinator re-expands it at a deterministically chosen
// extra depth into sub-jobs appended to the job queue. Sub-jobs run
// uncapped in later batches and are merged in place of their parent, so
// the merge still walks subtrees in DFS order. Whether a job splits
// depends only on its own deterministic first pass, never on worker
// count or timing. Budgeted solves (MaxNodes > 0) skip splitting
// entirely, which keeps the exact budget split/reconcile contract
// untouched.
//
// Determinism. The merged Result is byte-identical for every Workers ≥ 1:
//
//   - The job list is a pure function of the instance (the expansion is
//     serial, its pruning bounds are fixed — the greedy/UpperBound seed —
//     and the split depth is chosen by a worker-independent rule), so every
//     worker count searches the same subtrees. Batch boundaries, promotion
//     order, and the split decisions are functions of job indices and
//     per-job outcomes, so the shared tier seen by job k is exactly the
//     promotions of strictly earlier batches for every worker count.
//   - Each job's subtree search is self-contained: its dominance memo is
//     reset per job, its incumbent is seeded with the same fixed bound, and
//     its cross-job pruning bound is frozen at batch formation — the best
//     verified makespan of strictly earlier batches, assigned by the
//     coordinator in job order, never read live from the shared incumbent.
//     The frozen bound prunes strictly (lb > bound, not ≥), so a job can
//     never lose a schedule that ties the global optimum. The job's result
//     — its first strictly-improving chain in DFS order — therefore does
//     not depend on when other jobs publish.
//   - Merging strictly-improving results in job order (descending into
//     sub-job ranges where a parent split) picks the lowest-indexed
//     subtree that attains the optimal makespan, and within it the first
//     optimal schedule in DFS order — the same schedule a sequential DFS
//     over the jobs would return.
//
// Node and memo-hit counters are kept worker-local (no atomics on the hot
// path) and summed in job order at merge. Because every pruning input a
// job sees — seed incumbent, frozen batch bound, shared tier — is fixed
// when its batch forms, the counters too are byte-identical for every
// Workers value ≥ 1. (An earlier revision let workers read the live
// shared incumbent, which made node counts depend on publication timing:
// a single worker ran jobs in order and saw every earlier improvement,
// several workers raced ahead of them.) The batch-frozen bound trades a
// little pruning lag — an improvement found mid-batch only benefits the
// *next* batch — for counters that are comparable across worker counts.
//
// The node budget is split and reconciled deterministically: the expansion
// draws on the full budget, the remainder is divided across jobs by index
// (base + 1 extra for the first remainder-many jobs), and after the
// parallel pass any unspent budget is granted to still-truncated jobs in
// job order via sequential from-scratch re-solves — so whether a solve
// reports Optimal or falls back to its incumbent does not depend on which
// worker ran which job.

import (
	"sync"
	"sync/atomic"

	"tessel/internal/faultpoint"
)

const (
	// parallelTargetJobs is the job count the split-depth rule aims for —
	// enough surplus over any worker count for dynamic load balance.
	parallelTargetJobs = 64
	// parallelMaxJobs caps the job list; past it a deeper split only adds
	// per-job overhead and fragments the dominance memo further.
	parallelMaxJobs = 512
	// parallelMaxDepth bounds the split depth regardless of branching.
	parallelMaxDepth = 6

	// parallelBatchInitial / parallelBatchMax shape the batch-size ramp of
	// the job loop. Small early batches publish shared-tier promotions
	// quickly (the first few jobs are the ones whose dominance facts every
	// later job can reuse); the ramp then widens toward parallelBatchMax so
	// barrier overhead stays negligible once the tier is warm.
	parallelBatchInitial = 4
	parallelBatchMax     = 16

	// splitTargetSubJobs / splitMaxSubJobs / splitMaxExtraDepth govern the
	// deterministic re-split of an oversized job: the coordinator picks the
	// smallest extra depth yielding at least splitTargetSubJobs sub-jobs,
	// never exceeding splitMaxSubJobs or splitMaxExtraDepth.
	splitTargetSubJobs = 8
	splitMaxSubJobs    = 64
	splitMaxExtraDepth = 3

	// promoPerJobCap bounds the entries one job may extract for shared-tier
	// promotion, bounding the coordinator's between-batch absorb work. The
	// cut slices extractCanonical's (mask, sum, vec)-sorted order — raw
	// memo iteration order varies with the slot-array size a sync.Pool-
	// recycled searcher retained from earlier jobs, so slicing it would
	// admit a subset that depends on worker/timing history, not just on the
	// job's own deterministic search. At one insert per expanded node a
	// capped round-1 job can never exceed splitNodeCap entries, so the cut
	// only ever bites on oversized uncapped sub-jobs.
	promoPerJobCap = 1 << 14
)

// splitNodeCap is the first-pass node cap of a round-1 job on unbudgeted
// solves: a job that truncates at the cap is split into sub-jobs instead
// of merging its (discarded) probe pass. A package variable, not a
// constant, so tests can lower it to force splitting on small instances;
// production code must treat it as fixed per process.
var splitNodeCap int64 = 1 << 14

// ResolveWorkers maps a caller-facing worker setting to solver
// Options.Workers. An explicit request (requested ≥ 1) is honored as-is
// and runs the deterministic root-split search, whose schedule bytes are
// identical for every explicit value on every machine. Zero (the default)
// and negative values resolve to 0, the single-threaded search: it is the
// faster engine on every instance the service solves — on the 48-task
// m-shape whole-problem solve the root split expands 3.4× the nodes and
// takes about twice the wall time on two cores — so no machine or
// instance size turns the split search on implicitly.
func ResolveWorkers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return 0
}

// sharedIncumbent is the cross-worker incumbent of one parallel solve: the
// best verified makespan as an atomic and the corresponding start vector
// behind a mutex. Workers publish to it but never prune against it (the
// pruning bound is the batch-frozen pJob.bound); it exists so a cancelled
// solve can still return the best schedule found. The starts are
// published only after verification — record() offers a schedule exactly
// when it is complete and satisfies every constraint and bound — and only
// while its makespan still matches the atomic, so readers never observe a
// vector that lost the race.
type sharedIncumbent struct {
	best atomic.Int64
	mu   sync.Mutex
	// starts is the incumbent vector; has marks it valid. Consulted only on
	// the cancellation path (the deterministic merge rebuilds the result
	// from per-job bests), so the mutex is uncontended in steady state.
	starts []int
	has    bool
}

// offer publishes a verified schedule if it improves the shared incumbent.
func (si *sharedIncumbent) offer(makespan int, starts []int) {
	m := int64(makespan)
	for {
		cur := si.best.Load()
		if m >= cur {
			return
		}
		if si.best.CompareAndSwap(cur, m) {
			break
		}
	}
	si.mu.Lock()
	if m <= si.best.Load() {
		si.starts = append(si.starts[:0], starts...)
		si.has = true
	}
	si.mu.Unlock()
}

// pJob is one unit of the root split: a depth-D prefix (task ids in apply
// order) plus the job's result slot, written by exactly one worker.
type pJob struct {
	prefix []int32
	// budget is the job's node share: 0 = unlimited, negative = no budget
	// left (the job reports truncated without expanding a node, so the
	// solve-wide MaxNodes contract holds exactly).
	budget int64

	// bound is the job's frozen cross-job pruning bound: the best verified
	// makespan of strictly earlier batches, written by the coordinator when
	// the job's batch is formed (and refreshed before a reconcile re-solve).
	// Pruning against it is strict — ties survive — so a job can never lose
	// a schedule that ties the global optimum; see searcher.cutoff.
	bound int

	// capped marks a round-1 job of an unbudgeted solve: its first pass
	// runs under splitNodeCap, and truncating at the cap makes it a split
	// candidate. Sub-jobs are never capped, bounding the recursion at one
	// level.
	capped bool

	done           bool // a worker ran the job (false only after cancellation)
	found          bool // the subtree strictly improved on the seed incumbent
	makespan       int
	starts         []int
	nodes          int64
	memoHits       int64
	sharedMemoHits int64
	truncated      bool
	boundCut       bool
	cancelled      bool

	// promo holds the job's shared-tier promotion candidates, filled by the
	// worker when the job ran to completion — a canonically ordered,
	// promoPerJobCap-capped extract of its private memo (see
	// extractCanonical; a raw iteration-order extract would vary with the
	// pooled searcher's history) — and drained by the coordinator between
	// batches, in job order.
	promo memoExtract

	// Split bookkeeping (coordinator-written, between batches): a split
	// parent's probe pass is discarded and the merge descends into
	// jobs[subStart:subEnd] in its place, after accounting the split
	// re-expansion's own effort (splitNodes/splitMemoHits/…, the nodes
	// between the job root and the sub-job roots).
	split               bool
	subStart, subEnd    int
	splitNodes          int64
	splitMemoHits       int64
	splitSharedMemoHits int64
	splitBoundCut       bool
	// panicked holds the value recovered from a panic inside this job's
	// search (injected by faultpoint or a real bug); the merge re-raises the
	// first panicked job in job order on the solve goroutine, so containment
	// lives with the solve's caller, not on a worker goroutine.
	panicked any
}

// candStart computes the earliest feasible start of frontier task t in the
// current state — the same formula the candidate collector uses — so a
// worker can re-derive a prefix candidate from its task id alone.
//
//tessel:noalloc
func (s *searcher) candStart(t int) int {
	st := s.release[t]
	for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		if s.devAvail[dev] > st {
			st = s.devAvail[dev]
		}
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		if s.finish[p] > st {
			st = s.finish[p]
		}
	}
	return st
}

// memFeasible reports whether starting t now respects every device's
// memory capacity.
//
//tessel:noalloc
func (s *searcher) memFeasible(t int) bool {
	for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		if s.devMem[dev]+s.mem[t] > s.opts.Memory {
			return false
		}
	}
	return true
}

// trialCount counts the memory-feasible prefixes at the given depth,
// aborting once the count exceeds limit. It intentionally skips bound and
// memo pruning (which can only shrink the real job list), so it never
// perturbs search state beyond apply/undo pairs and its result is a pure
// function of the instance.
func (s *searcher) trialCount(depth, limit int) int {
	count := 0
	var rec func(d int)
	rec = func(d int) {
		if count > limit {
			return
		}
		if d == depth {
			count++
			return
		}
		fr := &s.frames[s.nSched]
		cands := fr.cands[:0]
		for _, t32 := range s.frontier {
			t := int(t32)
			if !s.memFeasible(t) {
				continue
			}
			cands = append(cands, candidate{task: t, start: s.candStart(t)})
		}
		fr.cands = cands
		for i := range cands {
			c := fr.cands[i]
			saved := fr.saved[:0]
			for _, dev := range s.devList[s.devOff[c.task]:s.devOff[c.task+1]] {
				saved = append(saved, s.devAvail[dev])
			}
			fr.saved = saved
			savedMakespan, savedMaxTail := s.makespan, s.maxTail
			s.apply(c)
			rec(d + 1)
			s.undo(c, fr.saved, savedMakespan, savedMaxTail)
			if count > limit {
				return
			}
		}
	}
	rec(0)
	return count
}

// planSplitDepth picks the split depth: the smallest depth whose prefix
// count reaches parallelTargetJobs, stopping early when a deeper split
// would exceed parallelMaxJobs. Every input to the rule is a constant or a
// function of the instance, so the depth — and with it the job list — is
// identical for every worker count.
func (s *searcher) planSplitDepth() int {
	maxD := parallelMaxDepth
	if s.n-1 < maxD {
		maxD = s.n - 1
	}
	if maxD < 1 {
		return 0
	}
	best := 1
	for d := 1; d <= maxD; d++ {
		c := s.trialCount(d, parallelMaxJobs)
		if c > parallelMaxJobs {
			break
		}
		best = d
		if c >= parallelTargetJobs {
			break
		}
	}
	return best
}

// expand is the serial prefix expansion: the sequential DFS — node count,
// budget poll, bounds, dominance memo, ordered candidate collection — cut
// off at the split depth, where a state that survives the full node
// processing is captured as a job instead of recursing. Probing (and
// inserting into) the root memo *before* capturing matters: a dominance
// memo only relates states with equal scheduled-set masks, and at depth D
// an equal mask means an equal cardinality, so every stored state that
// could prune a depth-D node is itself a depth-D node from an earlier
// prefix — all already inserted here, in the same DFS order the sequential
// search encounters them. Capturing only survivors therefore discards
// exactly the permutation-equivalent subtrees the sequential search
// discards, instead of handing each worker a duplicate of work another
// job already covers. Depths ≤ D are searched and counted here, once;
// jobs search strictly below their captured root.
func (s *searcher) expand(depth int, jobs *[]pJob) {
	s.nodes++
	if s.outOfBudget() {
		s.truncated = true
		return
	}
	if s.prunedOrMemo() {
		return
	}
	if s.nSched == depth {
		*jobs = append(*jobs, pJob{prefix: append([]int32(nil), s.pathStack...)})
		return
	}
	cands := s.collectCandidates()
	fr := &s.frames[s.nSched]
	for i := range cands {
		c := cands[i]
		saved := fr.saved[:0]
		for _, dev := range s.devList[s.devOff[c.task]:s.devOff[c.task+1]] {
			saved = append(saved, s.devAvail[dev])
		}
		fr.saved = saved
		savedMakespan, savedMaxTail := s.makespan, s.maxTail
		s.apply(c)
		s.pathStack = append(s.pathStack, int32(c.task))
		s.expand(depth, jobs)
		s.pathStack = s.pathStack[:len(s.pathStack)-1]
		s.undo(c, fr.saved, savedMakespan, savedMaxTail)
		if s.truncated {
			return
		}
	}
}

// prepareWorker initializes a pooled searcher for job processing: a full
// reset on the same instance, the fixed seed incumbent (the root's
// post-greedy best — every worker prunes from the same deterministic
// baseline), and the shared incumbent hookup. The sketch scale derives
// from the same seed on every worker, so memo quantization is identical
// across workers and runs.
func (w *searcher) prepareWorker(tasks []Task, opts Options, seedMakespan int, seedSet bool, si *sharedIncumbent, tier *memoTable) error {
	if err := w.reset(w.ctx, tasks, opts); err != nil {
		return err
	}
	w.seedWorker(opts, seedMakespan, seedSet, si, tier)
	return nil
}

func (w *searcher) seedWorker(opts Options, seedMakespan int, seedSet bool, si *sharedIncumbent, tier *memoTable) {
	w.jobSeedMakespan = seedMakespan
	w.jobSeedSet = seedSet
	w.batchBound = seedMakespan
	w.shared = si
	w.sharedTier = tier
	w.best.Makespan = seedMakespan
	w.bestSet = seedSet
	if !opts.DisableMemo {
		w.setSketchScale()
	}
}

// runJob searches one subtree: re-derive and apply the prefix, reset the
// per-job state (incumbent seed, counters, dominance memo — a generation
// bump, so jobs never see each other's entries), run the sequential DFS,
// capture the result, and undo the prefix so the searcher is back at the
// root for its next job.
func (w *searcher) runJob(jb *pJob) {
	if w.ctx.Err() != nil {
		jb.cancelled = true
		return
	}
	if err := faultpoint.Inject(faultpoint.SolverParallelJob); err != nil {
		panic(err)
	}
	if jb.budget < 0 {
		// No budget share left for this job: it truncates before expanding a
		// single node, exactly as the sequential search would at this point
		// of its DFS. The reconcile pass may re-run it with leftover budget.
		jb.done = true
		jb.truncated = true
		return
	}
	w.nodes = 0
	w.memoHits = 0
	w.sharedMemoHits = 0
	w.truncated = false
	w.boundCut = false
	w.cancelled = false
	w.opts.MaxNodes = jb.budget
	if jb.capped {
		// Round-1 pass of an unbudgeted solve: run under the split cap so an
		// oversized subtree is detected (and split) instead of serializing
		// the whole solve behind one job.
		w.opts.MaxNodes = splitNodeCap
	}
	w.best = Result{Makespan: w.jobSeedMakespan}
	w.bestSet = w.jobSeedSet
	w.batchBound = jb.bound
	if !w.opts.DisableMemo {
		w.memo.reset(w.maskWords)
	}

	depth := len(jb.prefix)
	w.pfxOff = intsN(w.pfxOff, depth+1)
	w.pfxMakespan = intsN(w.pfxMakespan, depth)
	w.pfxMaxTail = intsN(w.pfxMaxTail, depth)
	w.pfxAvail = w.pfxAvail[:0]
	w.pfxOff[0] = 0
	for di, t32 := range jb.prefix {
		t := int(t32)
		for _, dev := range w.devList[w.devOff[t]:w.devOff[t+1]] {
			w.pfxAvail = append(w.pfxAvail, w.devAvail[dev])
		}
		w.pfxOff[di+1] = len(w.pfxAvail)
		w.pfxMakespan[di] = w.makespan
		w.pfxMaxTail[di] = w.maxTail
		w.apply(candidate{task: t, start: w.candStart(t)})
	}

	// The job's root state was processed (counted, bound-checked, memoized)
	// by the expansion; the job searches strictly below it, so expansion
	// and job node counts partition the tree with no double counting.
	cands := w.collectCandidates()
	fr := &w.frames[w.nSched]
	for i := range cands {
		c := cands[i]
		saved := fr.saved[:0]
		for _, dev := range w.devList[w.devOff[c.task]:w.devOff[c.task+1]] {
			saved = append(saved, w.devAvail[dev])
		}
		fr.saved = saved
		savedMakespan, savedMaxTail := w.makespan, w.maxTail
		w.apply(c)
		w.dfs()
		w.undo(c, fr.saved, savedMakespan, savedMaxTail)
		if w.truncated {
			break
		}
	}

	jb.done = true
	jb.nodes = w.nodes
	jb.memoHits = w.memoHits
	jb.sharedMemoHits = w.sharedMemoHits
	jb.truncated = w.truncated
	jb.boundCut = w.boundCut
	jb.cancelled = w.cancelled
	if w.bestSet && w.best.Feasible && w.best.Makespan < w.jobSeedMakespan {
		jb.found = true
		jb.makespan = w.best.Makespan
		jb.starts = append([]int(nil), w.bestStarts...)
	}

	for di := depth - 1; di >= 0; di-- {
		t := int(jb.prefix[di])
		c := candidate{task: t, start: w.starts[t]}
		w.undo(c, w.pfxAvail[w.pfxOff[di]:w.pfxOff[di+1]], w.pfxMakespan[di], w.pfxMaxTail[di])
	}

	// Extract this job's private-memo entries for shared-tier promotion —
	// only when the subtree was fully explored: a truncated or cancelled
	// job's memo describes partially-searched states, which must never
	// prune another job. The canonical extract order makes the
	// promoPerJobCap cut — and any memoCap cut promoteJob later applies — a
	// pure function of the job's own deterministic search; the coordinator
	// decides admission between batches, in job order.
	if w.sharedTier != nil && !w.truncated && !w.cancelled {
		jb.promo = w.memo.extractCanonical(promoPerJobCap)
	}
}

// runJobGuarded runs one job on a worker goroutine, containing any panic in
// the job's result slot: recover only works on the goroutine that panics, so
// without this guard a crashing subtree search would kill the process before
// the solve's caller (ultimately the engine's structured-error recovery)
// ever saw it. Reports whether the searcher is still trustworthy — a panic
// can strand it mid-apply, so the caller must drop a false searcher instead
// of recycling it.
func runJobGuarded(w *searcher, jb *pJob) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			jb.panicked = r
			jb.done = false
			ok = false
		}
	}()
	w.runJob(jb)
	return true
}

// runParallel is the parallel counterpart of run(): greedy seed, prefix
// expansion, worker fan-out, deterministic budget reconciliation, and the
// in-order merge. It leaves the merged outcome in the same searcher fields
// run() does, so solve()'s epilogue is shared.
func (s *searcher) runParallel() {
	if starts, ms, ok := s.greedy(); ok {
		if ms < s.best.Makespan && ms <= s.deadline {
			s.record(starts, ms)
		} else {
			s.boundCut = true
		}
	}
	if !s.opts.DisableMemo {
		s.setSketchScale()
	}

	// The merge baseline: the greedy/UpperBound-seeded incumbent. Saved
	// aside because reconciliation reruns reuse this searcher's incumbent
	// fields.
	baseMakespan := s.best.Makespan
	baseSet := s.bestSet
	baseFeasible := s.best.Feasible
	baseStarts := append([]int(nil), s.bestStarts...)

	si := &sharedIncumbent{}
	si.best.Store(int64(baseMakespan))
	s.seedWorker(s.opts, baseMakespan, baseSet, si, nil)

	depth := s.planSplitDepth()
	var jobs []pJob
	if depth >= 1 {
		s.pathStack = s.pathStack[:0]
		s.expand(depth, &jobs)
	}
	expNodes, expMemoHits := s.nodes, s.memoHits
	expTruncated, expBoundCut := s.truncated, s.boundCut

	if expTruncated || len(jobs) == 0 {
		// Budget exhausted during expansion (sequential, so deterministic),
		// or every branch pruned above the split depth: the baseline is the
		// final outcome and the flags already reflect the expansion.
		return
	}

	// Deterministic budget split: the expansion drew on the full budget,
	// the remainder is divided by job index.
	if s.opts.MaxNodes > 0 {
		rem := s.opts.MaxNodes - expNodes
		if rem < 0 {
			rem = 0
		}
		nj := int64(len(jobs))
		base, extra := rem/nj, rem%nj
		for i := range jobs {
			jobs[i].budget = base
			if int64(i) < extra {
				jobs[i].budget++
			}
			if jobs[i].budget == 0 {
				// A zero share would read as "unlimited"; the negative
				// sentinel makes the job truncate without expanding a node.
				jobs[i].budget = -1
			}
		}
	}

	// The shared memo tier, seeded with the expansion-phase memo (see the
	// package comment: the seeds are structural — equal-cardinality masks
	// mean they cannot prune the deeper job nodes — while cross-job
	// promotions at batch boundaries are what shrink the node count).
	var tier *memoTable
	if !s.opts.DisableMemo {
		tier = &memoTable{}
		tier.reset(s.maskWords)
		tier.absorb(&s.memo)
	}

	// Cap-triggered splitting is confined to unbudgeted solves so the
	// MaxNodes split/reconcile contract stays exact.
	splitting := s.opts.MaxNodes == 0
	if splitting {
		for i := range jobs {
			jobs[i].capped = true
		}
	}
	nRoot := len(jobs)

	// Batched fan-out: during a batch the tier is immutable and workers
	// probe it lock-free; between batches (wg.Wait barrier → coordinator
	// mutations → next batch's goroutine spawns, a plain happens-before
	// chain) the coordinator promotes completed jobs' entries in job order
	// and splits oversized jobs. Sub-jobs append to the queue and run in
	// later batches.
	tasks, opts, pool, ctx := s.tasks, s.opts, s.pool, s.ctx
	var stolen int64
	// curBound tracks the best verified makespan over completed batches —
	// the cross-job pruning bound frozen into each job at batch formation.
	// Advancing it only here, between batches, keeps every job's node count
	// a pure function of the job sequence (see pJob.bound).
	curBound := baseMakespan
	bsz := parallelBatchInitial
	for lo := 0; lo < len(jobs); {
		if ctx.Err() != nil {
			break // unrun jobs merge as cancelled
		}
		hi := lo + bsz
		if hi > len(jobs) {
			hi = len(jobs)
		}
		batch := jobs[lo:hi]
		for i := range batch {
			batch[i].bound = curBound
		}
		workers := opts.Workers
		if workers > len(batch) {
			workers = len(batch)
		}
		if workers < 1 {
			workers = 1
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := pool.get()
				w.ctx = ctx
				if err := w.prepareWorker(tasks, opts, baseMakespan, baseSet, si, tier); err != nil {
					// reset validated this exact input on the root searcher; the
					// only residual failure is a pre-cancelled context, which the
					// per-job guard reports per job.
					pool.put(w)
					return
				}
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(batch) {
						pool.put(w)
						return
					}
					if !runJobGuarded(w, &batch[i]) {
						// The panic may have stranded w mid-apply; drop it for GC
						// rather than recycling corrupt state. The surviving
						// workers keep draining the batch.
						return
					}
				}
			}()
		}
		wg.Wait()
		for i := range batch {
			if batch[i].panicked != nil {
				// Re-raise the first contained panic (batches run in order and
				// the scan is by job index, so the choice is deterministic) on
				// the solve goroutine, where the caller's recover — the
				// engine's structured-error conversion — can see the original
				// value. Pool.Solve's Put is skipped by the panic, so the root
				// searcher is dropped along with the worker's; the tier dies
				// with them, never published torn.
				panic(batch[i].panicked)
			}
		}
		// Adopt the batch's improvements into the bound for later batches.
		// A split candidate's (later-discarded) probe result still counts:
		// its schedule was verified by record(), and the probe pass is
		// deterministic, so the bound stays a pure function of job order.
		for i := range batch {
			if jb := &batch[i]; jb.found && jb.makespan < curBound {
				curBound = jb.makespan
			}
		}
		// Promote in job order, completed jobs only.
		if tier != nil {
			for i := range batch {
				jb := &batch[i]
				if jb.done && !jb.truncated && !jb.cancelled {
					promoteJob(tier, jb)
				}
				jb.promo = memoExtract{}
			}
		}
		// Split oversized jobs in job order. Appending to jobs may grow the
		// backing array, so index — don't hold pointers — across calls.
		if splitting {
			s.sharedTier = tier
			s.batchBound = curBound
			for i := lo; i < hi; i++ {
				if jobs[i].capped && jobs[i].done && jobs[i].truncated && !jobs[i].cancelled {
					if s.splitJob(i, &jobs) {
						stolen++
					}
				}
			}
			s.sharedTier = nil
		}
		lo = hi
		if bsz < parallelBatchMax {
			bsz *= 2
			if bsz > parallelBatchMax {
				bsz = parallelBatchMax
			}
		}
	}

	// Reconcile unspent budget: grant it to still-truncated jobs in job
	// order via sequential re-solves on this searcher, so truncation
	// verdicts depend on the (deterministic) node totals, not on which
	// worker ran which job. A re-solve restarts the subtree from scratch —
	// deterministic DFS revisits the truncated pass's nodes first — so it
	// strictly extends the first pass and *supersedes* its result: the
	// first pass's count is dropped, keeping Nodes a count of unique
	// nodes (every expanded state counted once), comparable across worker
	// settings. Budget accounting still charges both passes against
	// MaxNodes, so the revisits can never buy the solve extra expansion.
	if s.opts.MaxNodes > 0 && s.ctx.Err() == nil {
		s.sharedTier = tier
		var used int64
		for i := range jobs {
			used += jobs[i].nodes
		}
		rem := s.opts.MaxNodes - expNodes - used
		for i := range jobs {
			if rem <= 0 {
				break
			}
			if !jobs[i].truncated || jobs[i].cancelled {
				continue
			}
			if rem <= jobs[i].budget {
				continue // a re-solve could not see further than the first pass
			}
			jobs[i].budget = rem
			jobs[i].bound = curBound
			s.runJob(&jobs[i])
			rem -= jobs[i].nodes
			if jobs[i].found && jobs[i].makespan < curBound {
				curBound = jobs[i].makespan
			}
		}
		s.sharedTier = nil
	}

	// Merge in job enumeration order with the sequential search's
	// first-strict-improvement discipline, descending into a split
	// parent's sub-job range in its place so the walk visits subtrees in
	// DFS order. Splitting is one level deep (sub-jobs are never capped),
	// so the recursion is bounded.
	s.best = Result{Feasible: baseFeasible, Makespan: baseMakespan}
	s.bestSet = baseSet
	s.bestStarts = append(s.bestStarts[:0], baseStarts...)
	s.truncated = expTruncated
	s.boundCut = expBoundCut
	s.cancelled = false
	s.nodes = expNodes
	s.memoHits = expMemoHits
	s.sharedMemoHits = 0
	s.jobsStolen = stolen
	var mergeJob func(i int)
	mergeJob = func(i int) {
		jb := &jobs[i]
		if jb.split {
			// The probe pass is discarded wholesale — its subtree is
			// re-searched by the sub-jobs, so only the split re-expansion's
			// own effort (the nodes between job root and sub-job roots)
			// counts toward the unique-node total.
			s.nodes += jb.splitNodes
			s.memoHits += jb.splitMemoHits
			s.sharedMemoHits += jb.splitSharedMemoHits
			if jb.splitBoundCut {
				s.boundCut = true
			}
			for k := jb.subStart; k < jb.subEnd; k++ {
				mergeJob(k)
			}
			return
		}
		if !jb.done {
			s.cancelled = true
			return
		}
		s.nodes += jb.nodes
		s.memoHits += jb.memoHits
		s.sharedMemoHits += jb.sharedMemoHits
		if jb.truncated {
			s.truncated = true
		}
		if jb.boundCut {
			s.boundCut = true
		}
		if jb.cancelled {
			s.cancelled = true
		}
		if jb.found && jb.makespan < s.best.Makespan {
			s.best.Feasible = true
			s.best.Makespan = jb.makespan
			s.bestStarts = append(s.bestStarts[:0], jb.starts...)
			s.bestSet = true
		}
	}
	for i := 0; i < nRoot; i++ {
		mergeJob(i)
	}
	if s.cancelled && !s.bestSet && si.has {
		// Cancelled before any job merged a result: fall back to the shared
		// incumbent so the error return still carries the best schedule
		// found (the non-error paths never reach this).
		si.mu.Lock()
		s.best.Feasible = true
		s.best.Makespan = int(si.best.Load())
		s.bestStarts = append(s.bestStarts[:0], si.starts...)
		s.bestSet = true
		si.mu.Unlock()
	}
}

// promoteJob admits one completed job's extracted entries into the shared
// tier with the search's own probe/insert discipline: entries the tier
// already dominates are skipped, admitted entries evict the stored
// entries they dominate, and memoCap bounds total growth. Runs only on
// the coordinator between batches, in job order over the canonically
// ordered extracts, so admission — like everything else about the tier,
// including which entries a mid-job memoCap stop admits — is a pure
// function of the job sequence.
func promoteJob(tier *memoTable, jb *pJob) {
	x := &jb.promo
	for i := 0; i < x.len(); i++ {
		if tier.size >= memoCap {
			return
		}
		mask, vec := x.mask(i), x.vec(i)
		if !tier.probe(mask, vec, x.sums[i], x.sketch[i]) {
			tier.insert(mask, vec, x.sums[i], x.sketch[i])
		}
	}
}

// splitJob re-expands the oversized job at index ji into sub-jobs at a
// deterministically chosen extra depth, appending them to the job queue.
// It runs on the root searcher between batches: the prefix is replayed
// uncounted (the root expansion already counted those nodes), the extra
// depth is picked by the same trial-count rule as the root split, and the
// job's *children* are then expanded — the job-root node itself was
// processed and memoized by the root expansion, so re-processing it would
// self-prune against its own memo entry; sub-jobs search strictly below
// their captured roots exactly like round-1 jobs do. Reports whether the
// job was split; on failure (expansion truncated by wall clock or
// cancellation, a subtree too shallow to split, or one so wide that even
// a one-level fan-out exceeds splitMaxSubJobs) the job keeps its
// truncated probe-pass result, nodes included — nothing else will
// re-search it, so in that fallback the probe pass is real, counted work.
func (s *searcher) splitJob(ji int, jobs *[]pJob) bool {
	prefix := (*jobs)[ji].prefix
	depth := len(prefix)
	maxE := splitMaxExtraDepth
	if depth+maxE > s.n-1 {
		maxE = s.n - 1 - depth
	}
	if maxE < 1 {
		return false
	}

	// Replay the prefix, uncounted, saving per-depth undo state.
	s.pfxOff = intsN(s.pfxOff, depth+1)
	s.pfxMakespan = intsN(s.pfxMakespan, depth)
	s.pfxMaxTail = intsN(s.pfxMaxTail, depth)
	s.pfxAvail = s.pfxAvail[:0]
	s.pfxOff[0] = 0
	for di, t32 := range prefix {
		t := int(t32)
		for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
			s.pfxAvail = append(s.pfxAvail, s.devAvail[dev])
		}
		s.pfxOff[di+1] = len(s.pfxAvail)
		s.pfxMakespan[di] = s.makespan
		s.pfxMaxTail[di] = s.maxTail
		s.apply(candidate{task: t, start: s.candStart(t)})
	}

	// Smallest extra depth yielding enough sub-jobs (same rule shape as
	// planSplitDepth, relative to the job root). extra stays 0 when even a
	// one-level fan-out exceeds splitMaxSubJobs; splitting then would break
	// the documented sub-job bound (and could grow the job queue past
	// parallelMaxJobs), so the split is declined — the job keeps its
	// truncated probe-pass result, which nothing else will re-search.
	extra := 0
	for d := 1; d <= maxE; d++ {
		c := s.trialCount(d, splitMaxSubJobs)
		if c > splitMaxSubJobs {
			break
		}
		extra = d
		if c >= splitTargetSubJobs {
			break
		}
	}
	if extra == 0 {
		for di := depth - 1; di >= 0; di-- {
			t := int(prefix[di])
			c := candidate{task: t, start: s.starts[t]}
			s.undo(c, s.pfxAvail[s.pfxOff[di]:s.pfxOff[di+1]], s.pfxMakespan[di], s.pfxMaxTail[di])
		}
		return false
	}

	savedNodes, savedHits, savedShared := s.nodes, s.memoHits, s.sharedMemoHits
	savedTrunc, savedBound, savedCancel := s.truncated, s.boundCut, s.cancelled
	s.nodes, s.memoHits, s.sharedMemoHits = 0, 0, 0
	s.truncated, s.boundCut, s.cancelled = false, false, false

	// Expand the children to depth+extra with the full node pipeline; the
	// prefix stack is pre-loaded so captured sub-jobs carry full-from-root
	// prefixes. The expansion shares s.memo (equal-cardinality states from
	// other split expansions can prune here) and the shared tier, all
	// coordinator-side and in job order — deterministic.
	s.pathStack = append(s.pathStack[:0], prefix...)
	subStart := len(*jobs)
	target := depth + extra
	cands := s.collectCandidates()
	fr := &s.frames[s.nSched]
	for i := range cands {
		c := cands[i]
		saved := fr.saved[:0]
		for _, dev := range s.devList[s.devOff[c.task]:s.devOff[c.task+1]] {
			saved = append(saved, s.devAvail[dev])
		}
		fr.saved = saved
		savedMakespan, savedMaxTail := s.makespan, s.maxTail
		s.apply(c)
		s.pathStack = append(s.pathStack, int32(c.task))
		s.expand(target, jobs)
		s.pathStack = s.pathStack[:len(s.pathStack)-1]
		s.undo(c, fr.saved, savedMakespan, savedMaxTail)
		if s.truncated {
			break
		}
	}

	// The append above may have grown the backing array; re-resolve the
	// parent before writing to it.
	jb := &(*jobs)[ji]
	splitOK := !s.truncated && !s.cancelled
	if splitOK {
		jb.split = true
		jb.subStart, jb.subEnd = subStart, len(*jobs)
		jb.splitNodes = s.nodes
		jb.splitMemoHits = s.memoHits
		jb.splitSharedMemoHits = s.sharedMemoHits
		jb.splitBoundCut = s.boundCut
	} else {
		// Discard any partially captured sub-jobs; the parent stays a
		// truncated job and merges its probe-pass incumbent.
		*jobs = (*jobs)[:subStart]
	}
	s.nodes, s.memoHits, s.sharedMemoHits = savedNodes, savedHits, savedShared
	s.truncated, s.boundCut, s.cancelled = savedTrunc, savedBound, savedCancel

	for di := depth - 1; di >= 0; di-- {
		t := int(prefix[di])
		c := candidate{task: t, start: s.starts[t]}
		s.undo(c, s.pfxAvail[s.pfxOff[di]:s.pfxOff[di+1]], s.pfxMakespan[di], s.pfxMaxTail[di])
	}
	return splitOK
}
