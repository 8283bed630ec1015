// Package repetend implements the repetend construction phase of Tessel
// (paper §IV-B): enumerating micro-batch index assignments for one full set
// of blocks under the pruning Properties 4.1/4.2, solving each candidate
// instance, and evaluating its steady-state period with the tight
// inter-repetend compaction of Figure 6.
//
// A repetend is one full set of the placement's K blocks with a micro-batch
// index r_i assigned to each stage i (Equation 3). Consecutive repetend
// instances shift every micro index by one and every start time by the
// period. Dependencies between stages with equal indices stay inside an
// instance; a dependency i→j with lag L = r_i − r_j ≥ 1 crosses L instance
// boundaries and constrains the period: s_i + t_i ≤ s_j + L·P.
//
// For a fixed per-device execution order, the minimum feasible period is
// the smallest P for which the difference-constraint system
//
//	s_j − s_i ≥ t_i             (intra-instance dependency)
//	s_v − s_u ≥ t_u             (u immediately precedes v on a device)
//	s_j − s_i ≥ t_i − L·P       (cross-instance dependency, lag L)
//	s_first − s_last ≥ t_last − P  (device span E_d ≤ P)
//
// has a solution, found by binary search over P with Bellman-Ford
// feasibility checks. Orders come from a minimum-makespan instance solve
// and are then improved by adjacent-swap local search on the period.
package repetend

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tessel/internal/sched"
	"tessel/internal/solver"
)

// ErrInfeasible reports that no repetend exists for an assignment under the
// given memory constraints.
var ErrInfeasible = errors.New("repetend: infeasible")

// ErrPruned reports that Solve abandoned an assignment because its period
// provably cannot be ≤ SolveOptions.PeriodUpperBound. The assignment may
// still be feasible — it just cannot beat (or tie) the caller's incumbent.
var ErrPruned = errors.New("repetend: pruned by period bound")

// ErrTruncated marks (by wrapping) a Solve error whose verdict was reached
// after a solver node or wall-clock budget ran out, so it is budget-degraded
// rather than proven. Callers surface it as a truncated search.
var ErrTruncated = errors.New("repetend: solver budget exhausted")

// Assignment maps each stage i to the micro-batch index r_i its block
// carries inside the repetend (Equation 3's n_i).
type Assignment []int

// Validate checks the assignment against placement p: correct length,
// indices in [0, nr), and Property 4.2 (for every dependency i→j,
// r_i ≥ r_j). nr ≤ 0 skips the range check.
func (a Assignment) Validate(p *sched.Placement, nr int) error {
	if len(a) != p.K() {
		return fmt.Errorf("assignment length %d != K %d", len(a), p.K())
	}
	for i, r := range a {
		if r < 0 || (nr > 0 && r >= nr) {
			return fmt.Errorf("stage %d: micro index %d outside [0,%d)", i, r, nr)
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			if a[i] < a[j] {
				return fmt.Errorf("property 4.2 violated: dep %d→%d with r_%d=%d < r_%d=%d", i, j, i, a[i], j, a[j])
			}
		}
	}
	return nil
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Compare orders assignments lexicographically by micro index, shorter
// prefixes first — the canonical order of the per-stage index vector. The
// sweep uses it to break period ties deterministically: among repetends
// with equal periods the canonically smallest assignment wins, so search
// results do not depend on worker scheduling.
func (a Assignment) Compare(b Assignment) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Enumerate yields every canonical assignment of micro indices in [0, nr)
// satisfying Property 4.2, with min index 0 and max index exactly nr−1 (so
// sweeping nr from 1 upward visits each assignment once). Stages are fixed
// in topological order; values are tried from the upper bound downward,
// which reaches pipeline-like assignments (consecutive drops of one) early.
// yield returning false stops the enumeration. The return value reports
// whether enumeration ran to completion (false when stopped by yield).
func Enumerate(p *sched.Placement, nr int, yield func(Assignment) bool) (bool, error) {
	if nr <= 0 {
		return false, fmt.Errorf("nr must be positive, got %d", nr)
	}
	order, err := p.TopoOrder()
	if err != nil {
		return false, err
	}
	preds := p.PredTable()
	k := p.K()
	assign := make(Assignment, k)
	for i := range assign {
		assign[i] = -1
	}
	complete := true
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == k {
			min, max := assign[order[0]], assign[order[0]]
			for _, r := range assign {
				if r < min {
					min = r
				}
				if r > max {
					max = r
				}
			}
			if min != 0 || max != nr-1 {
				return true
			}
			return yield(assign.Clone())
		}
		i := order[pos]
		hi := nr - 1
		for _, pr := range preds[i] {
			if assign[pr] < hi {
				hi = assign[pr]
			}
		}
		for v := hi; v >= 0; v-- {
			assign[i] = v
			if !rec(pos + 1) {
				complete = false
				return false
			}
		}
		assign[i] = -1
		return true
	}
	rec(0)
	return complete, nil
}

// Count returns the number of canonical assignments Enumerate would yield.
func Count(p *sched.Placement, nr int) (int, error) {
	n := 0
	if _, err := Enumerate(p, nr, func(Assignment) bool { n++; return true }); err != nil {
		return 0, err
	}
	return n, nil
}

// EntryMemory returns the per-device memory in use when a steady-state
// repetend instance begins: for each stage i, the r_i earlier micro-batches
// of that stage have already started, each contributing Mem (§IV-B,
// "infer the memory usage at the entry of the repetend").
func EntryMemory(p *sched.Placement, a Assignment) []int {
	mem := make([]int, p.NumDevices)
	for i := range p.Stages {
		for _, d := range p.Stages[i].Devices {
			mem[d] += a[i] * p.Stages[i].Mem
		}
	}
	return mem
}

// Repetend is a solved repetend: the assignment, the relative start time of
// each stage's block within one instance, and the steady-state timing
// decomposition of Equation 4.
type Repetend struct {
	// P is the placement the repetend schedules.
	P *sched.Placement
	// Assign is the micro index per stage.
	Assign Assignment
	// NR is the number of micro-batches the construction drew from
	// (1 + max assigned index).
	NR int
	// Starts is the relative start time per stage within one instance
	// (minimum 0); instance k starts stage i at Starts[i] + k·Period.
	Starts []int
	// Period is t_R, the steady-state time between consecutive instances
	// under tight compaction (Figure 6b).
	Period int
	// SimplePeriod is the period under simple compaction (Figure 6a): the
	// next instance waits for the whole previous instance.
	SimplePeriod int
	// Spans holds E_d per device: last finish − first start (Equation 4).
	Spans []int
	// Waits holds W_d per device: Period − E_d, the inter-instance idle.
	Waits []int
	// EntryMem is the per-device memory at instance entry.
	EntryMem []int
	// SolverNodes is the number of branch-and-bound nodes the instance
	// makespan solve expanded.
	SolverNodes int64
	// SolverMemoHits is the number of those nodes pruned by the solver's
	// dominance memo.
	SolverMemoHits int64
	// SolverSharedMemoHits is the number of nodes pruned by the parallel
	// solver's cross-job shared memo tier (disjoint from SolverMemoHits;
	// zero on single-threaded solves).
	SolverSharedMemoHits int64
	// SolverJobsStolen is the number of root-split jobs the parallel
	// solver re-split at a deterministic depth after they overran their
	// first-pass node cap (zero on single-threaded or budgeted solves).
	SolverJobsStolen int64
	// Truncated is true when the instance makespan solve exhausted a node
	// or wall-clock budget and fell back to its incumbent, so Starts (and
	// the derived period) are budget-degraded rather than proven optimal.
	Truncated bool
	// PeriodProbes is the number of period-feasibility probes — one
	// difference-constraint fixpoint computation each — the evaluation
	// ran across the order-independent relaxation, the minPeriod binary
	// searches, and local search. Like SolverNodes, the counters exist
	// only on successfully solved repetends: evaluations that end in
	// ErrPruned/ErrInfeasible return no Repetend and their (single-probe)
	// effort is not reported anywhere.
	PeriodProbes int64
	// PeriodRelaxations is the number of successful distance tightenings
	// inside those probes — the budget-independent measure of period-
	// machinery effort (the analogue of SolverNodes for the solver).
	PeriodRelaxations int64
	// LocalSearchSwaps is the number of candidate adjacent-order swaps
	// local search applied and evaluated (kept or undone).
	LocalSearchSwaps int64
}

// SolveOptions configures repetend solving.
type SolveOptions struct {
	// Memory is the per-device capacity (0 means unbounded).
	Memory int
	// SolverNodes / SolverTimeout bound the instance makespan solve.
	SolverNodes   int64
	SolverTimeout time.Duration
	// SolverWorkers selects the engine of the instance makespan solve: ≥ 1
	// runs the root-split search with that many workers, 0 and negative
	// run the single-threaded search. The schedule is byte-identical for
	// every explicit worker count ≥ 1 (solver.Options.Workers); see
	// solver.ResolveWorkers.
	SolverWorkers int
	// SimpleCompaction evaluates the repetend with Figure 6(a) semantics
	// (ablation); default is tight compaction.
	SimpleCompaction bool
	// DisableLocalSearch turns off the adjacent-swap order improvement.
	DisableLocalSearch bool
	// Cache, when non-nil, memoizes instance makespan solves across
	// assignments. The solve's task system depends on an assignment only
	// through its lag-zero dependency pattern (which dependencies stay
	// intra-instance) and the entry-memory state, and a sweep revisits the
	// same pattern under many different lag vectors, so sharing one cache
	// across a sweep's workers removes most branch-and-bound work. Safe to
	// share concurrently.
	Cache *SolveCache
	// Pool, when non-nil, supplies recycled solver searchers for the
	// instance makespan solve. A sweep shares one pool across its workers
	// so its hundreds of solves reuse task-graph, frontier and memo
	// storage instead of rebuilding them; nil falls back to the solver
	// package's shared pool. Results are identical either way.
	Pool *solver.Pool
	// PeriodPool, when non-nil, supplies recycled period-feasibility
	// engines for the repetend period evaluation — the period-machinery
	// analogue of Pool. A sweep shares one so its thousands of
	// feasibility probes reuse edge CSRs, dist vectors and order buffers;
	// nil falls back to the package's shared pool. Results are identical
	// either way.
	PeriodPool *PeriodPool
	// PeriodUpperBound, when positive, is an incumbent period held by the
	// caller: only repetends with Period ≤ PeriodUpperBound are useful, and
	// Solve returns ErrPruned as soon as it proves the assignment cannot
	// reach the bound. The bound is inclusive — candidates that tie the
	// incumbent still solve fully, so a sweep can break ties canonically
	// regardless of the order in which workers publish improvements.
	//
	// Pruning is restricted to proofs that hold for *every* per-device
	// order (the dependency-cycle bound), plus, in SimpleCompaction mode,
	// seeding the instance makespan solve's own incumbent. In tight
	// compaction the reported period/starts for an un-pruned assignment
	// are therefore identical to an unbounded solve — which is what keeps
	// incumbent-pruned sweeps deterministic.
	PeriodUpperBound int
}

// SolveCache memoizes instance makespan solves keyed by everything the
// solve depends on: the placement identity (canonical fingerprint),
// per-device memory capacity, entry memory, and the lag-zero dependency
// pattern of the assignment. Construct with NewSolveCache and share one
// cache across all workers of a sweep — or across sweeps: distinct
// placements never collide. The zero value is not usable.
type SolveCache struct {
	mu sync.Mutex
	m  map[string]cachedSolve
	// fp memoizes placement fingerprints by pointer so the SHA-256 is paid
	// once per placement, not once per solve.
	fp map[*sched.Placement]string
}

type cachedSolve struct {
	feasible bool
	optimal  bool
	starts   []int // per stage, nil when infeasible
}

// NewSolveCache returns an empty instance-solve cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{
		m:  make(map[string]cachedSolve),
		fp: make(map[*sched.Placement]string),
	}
}

func (c *SolveCache) fingerprint(p *sched.Placement) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.fp[p]; ok {
		return s
	}
	s := sched.Fingerprint(p)
	c.fp[p] = s
	return s
}

func (c *SolveCache) get(key string) (cachedSolve, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *SolveCache) put(key string, v cachedSolve) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// instanceKey is the cache identity of one instance makespan solve: the
// placement fingerprint (so one cache can serve many placements without
// collisions), the memory capacity, the per-device entry memory (only when
// the capacity can bind — under unbounded memory the entry state cannot
// affect the solve), and the lag-zero edge set. Stage times, devices and
// memory deltas are covered by the placement fingerprint.
func instanceKey(fingerprint string, p *sched.Placement, a Assignment, entry []int, mem int) string {
	b := make([]byte, 0, len(fingerprint)+8+4*len(entry)+4*p.K())
	b = append(b, fingerprint...)
	b = binary.AppendVarint(b, int64(mem))
	if mem != sched.Unbounded {
		for _, m := range entry {
			b = binary.AppendVarint(b, int64(m))
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			if a[i] == a[j] {
				b = binary.AppendUvarint(b, uint64(i))
				b = binary.AppendUvarint(b, uint64(j))
			}
		}
	}
	return string(b)
}

// instanceTasks builds the canonical task system of one repetend instance:
// one task per stage in stage order, with dependencies restricted to
// lag-zero edges (cross-lag blocks belong to different micro-batches and
// are independent within the instance, Equation 2). Stage order — rather
// than BuildTasks' (micro, stage) order — makes the task system, and hence
// the solver's deterministic traversal, identical for every assignment
// sharing a lag-zero pattern, which is what lets SolveCache reuse solves.
func instanceTasks(p *sched.Placement, a Assignment) []solver.Task {
	tasks := make([]solver.Task, p.K())
	for i := range tasks {
		st := &p.Stages[i]
		tasks[i] = solver.Task{
			ID:      sched.Block{Stage: i, Micro: a[i]},
			Time:    st.Time,
			Mem:     st.Mem,
			Devices: st.Devices,
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			if a[i] == a[j] {
				tasks[j].Preds = append(tasks[j].Preds, i)
			}
		}
	}
	return tasks
}

// Solve constructs and evaluates the repetend for one assignment. It
// returns ErrInfeasible (wrapped) when memory constraints rule it out,
// ErrPruned when PeriodUpperBound proves the assignment cannot beat the
// caller's incumbent, and ctx's error when the context is cancelled
// mid-solve. Budget-degraded verdicts additionally wrap ErrTruncated.
func Solve(ctx context.Context, p *sched.Placement, a Assignment, opts SolveOptions) (*Repetend, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(p, 0); err != nil {
		return nil, err
	}
	mem := opts.Memory
	if mem == 0 {
		mem = sched.Unbounded
	}
	entry := EntryMemory(p, a)
	for d, m := range entry {
		if m > mem {
			return nil, fmt.Errorf("%w: entry memory %d on device %d exceeds %d", ErrInfeasible, m, d, mem)
		}
	}
	// Per-device memory must net to zero per instance or the steady state
	// drifts without bound.
	if mem != sched.Unbounded {
		for d := 0; d < p.NumDevices; d++ {
			net := 0
			for _, i := range p.DeviceStages(sched.DeviceID(d)) {
				net += p.Stages[i].Mem
			}
			if net != 0 {
				return nil, fmt.Errorf("%w: device %d memory nets %+d per instance", ErrInfeasible, d, net)
			}
		}
	}
	eng := opts.PeriodPool.get()
	defer eng.release()
	eng.bind(p, a, entry, mem)
	bound := opts.PeriodUpperBound
	if bound > 0 && (eng.workLowerBound() > bound || !eng.relaxedFeasible(bound)) {
		// The order-independent bounds already rule the incumbent out: no
		// per-device order can rescue this assignment, so skip the
		// expensive instance solve entirely.
		return nil, fmt.Errorf("%w: period lower bound > %d", ErrPruned, bound)
	}
	// Minimum-makespan instance solve to obtain per-device orders. The task
	// system is canonical in stage order, so assignments sharing a lag-zero
	// pattern (and entry memory) produce byte-identical solves — which the
	// optional cache exploits. Incumbent-bounded solves (simple compaction)
	// depend on the bound of the moment and bypass the cache.
	var (
		starts      []int
		nodes       int64
		memoHits    int64
		sharedHits  int64
		jobsStolen  int64
		optimal     = true
		feasible    bool
		hit         bool
		boundPruned bool
	)
	bounded := bound > 0 && opts.SimpleCompaction
	key := ""
	if opts.Cache != nil && !bounded {
		key = instanceKey(opts.Cache.fingerprint(p), p, a, entry, mem)
		if c, ok := opts.Cache.get(key); ok {
			hit, feasible, optimal = true, c.feasible, c.optimal
			if c.feasible {
				starts = append([]int(nil), c.starts...)
			}
		}
	}
	if !hit {
		solveOpts := solver.Options{
			NumDevices: p.NumDevices,
			Memory:     mem,
			InitialMem: entry,
			MaxNodes:   opts.SolverNodes,
			Timeout:    opts.SolverTimeout,
			Workers:    solver.ResolveWorkers(opts.SolverWorkers),
		}
		if bounded {
			// Under Figure 6(a) semantics the period *is* the instance
			// makespan, so the incumbent period bounds the makespan solve
			// directly. (Under tight compaction the period can be far below
			// the makespan, so the bound would be unsound there.)
			solveOpts.UpperBound = bound + 1
			solveOpts.Deadline = bound
		}
		// A nil Pool falls back to the solver package's shared pool.
		res, err := opts.Pool.Solve(ctx, instanceTasks(p, a), solveOpts)
		if err != nil {
			return nil, err
		}
		nodes, memoHits = res.Nodes, res.MemoHits
		sharedHits, jobsStolen = res.SharedMemoHits, res.JobsStolen
		optimal, feasible, boundPruned = res.Optimal, res.Feasible, res.BoundPruned
		if feasible {
			starts = append([]int(nil), res.Starts...) // stage order
		}
		if key != "" {
			opts.Cache.put(key, cachedSolve{feasible: feasible, optimal: optimal, starts: append([]int(nil), starts...)})
		}
	}
	if !feasible {
		verdict := ErrInfeasible
		detail := "no instance schedule within memory"
		if boundPruned {
			verdict = ErrPruned
			detail = fmt.Sprintf("no instance schedule with makespan ≤ %d", bound)
		}
		if !optimal {
			return nil, fmt.Errorf("%w: %s (%w)", verdict, detail, ErrTruncated)
		}
		return nil, fmt.Errorf("%w: %s", verdict, detail)
	}
	r := &Repetend{
		P:                    p,
		Assign:               a.Clone(),
		NR:                   maxOf(a) + 1,
		EntryMem:             entry,
		SolverNodes:          nodes,
		SolverMemoHits:       memoHits,
		SolverSharedMemoHits: sharedHits,
		SolverJobsStolen:     jobsStolen,
		Truncated:            !optimal,
	}
	normalize(starts)
	r.SimplePeriod = makespanOf(p, starts)
	if opts.SimpleCompaction {
		r.Starts = starts
		r.Period = r.SimplePeriod
	} else {
		eng.setOrdersFromStarts(starts)
		// Bounding the initial period search by the incumbent is only sound
		// when local search cannot improve the order afterwards; with local
		// search enabled the true period is needed as its starting point.
		initBound := 0
		if opts.DisableLocalSearch {
			initBound = bound
		}
		period, status := eng.minPeriod(initBound)
		switch status {
		case periodPruned:
			return nil, fmt.Errorf("%w: order period > %d", ErrPruned, bound)
		case periodInfeasible:
			return nil, fmt.Errorf("repetend: period repair failed for a feasible order")
		}
		eng.bestStarts = eng.appendStarts(eng.bestStarts)
		if !opts.DisableLocalSearch {
			period = eng.localSearch(ctx, period)
		}
		r.Starts = append([]int(nil), eng.bestStarts...)
		r.Period = period
	}
	r.PeriodProbes = eng.probes
	r.PeriodRelaxations = eng.relaxations
	r.LocalSearchSwaps = eng.swaps
	r.computeSpans()
	if bound > 0 && r.Period > bound {
		return nil, fmt.Errorf("%w: period %d > %d", ErrPruned, r.Period, bound)
	}
	return r, nil
}

func maxOf(a Assignment) int {
	m := 0
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	return m
}

func normalize(starts []int) {
	if len(starts) == 0 {
		return
	}
	min := starts[0]
	for _, s := range starts[1:] {
		if s < min {
			min = s
		}
	}
	for i := range starts {
		starts[i] -= min
	}
}

func makespanOf(p *sched.Placement, starts []int) int {
	end := 0
	for i, s := range starts {
		if e := s + p.Stages[i].Time; e > end {
			end = e
		}
	}
	return end
}

func (r *Repetend) computeSpans() {
	d := r.P.NumDevices
	r.Spans = make([]int, d)
	r.Waits = make([]int, d)
	for dev := 0; dev < d; dev++ {
		first, last := -1, -1
		for _, i := range r.P.DeviceStages(sched.DeviceID(dev)) {
			s, e := r.Starts[i], r.Starts[i]+r.P.Stages[i].Time
			if first < 0 || s < first {
				first = s
			}
			if e > last {
				last = e
			}
		}
		if first < 0 {
			continue // device idle in this placement
		}
		r.Spans[dev] = last - first
		r.Waits[dev] = r.Period - r.Spans[dev]
	}
}

// Schedule returns the instance-0 schedule (relative time, assigned micros).
func (r *Repetend) Schedule() *sched.Schedule {
	s := sched.NewSchedule(r.P)
	for i, st := range r.Starts {
		s.Add(i, r.Assign[i], st)
	}
	s.Sort()
	return s
}

// Unroll returns k consecutive instances: instance j shifts every start by
// j·Period and every micro index by j.
func (r *Repetend) Unroll(k int) *sched.Schedule {
	s := sched.NewSchedule(r.P)
	for j := 0; j < k; j++ {
		for i, st := range r.Starts {
			s.Add(i, r.Assign[i]+j, st+j*r.Period)
		}
	}
	s.Sort()
	return s
}

// SteadyBubbleRate returns the steady-state bubble rate of the repetend:
// 1 − Σ_d work_d / (D·Period).
func (r *Repetend) SteadyBubbleRate() float64 {
	if r.Period == 0 {
		return 0
	}
	total := 0
	for d := 0; d < r.P.NumDevices; d++ {
		total += r.P.DeviceWork(sched.DeviceID(d))
	}
	return 1 - float64(total)/float64(r.P.NumDevices*r.Period)
}
