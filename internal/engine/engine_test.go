package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

func mshape(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func vshape(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheHitSkipsSearch is the core serving property: the second request
// for the same placement is served from the cache — the repetend solver is
// not invoked again — even when the micro-batch count differs.
func TestCacheHitSkipsSearch(t *testing.T) {
	e := New(Options{})
	p := mshape(t)
	ctx := context.Background()

	cold, info, err := e.Search(ctx, p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Shared {
		t.Fatalf("cold request reported info=%+v", info)
	}
	if cold.Stats.Solved == 0 {
		t.Fatal("cold search solved no repetends")
	}
	if cold.Stats.PeriodProbes == 0 || cold.Stats.PeriodRelaxations == 0 {
		t.Fatalf("cold search reported no period-machinery effort: %+v", cold.Stats)
	}

	warm, info, err := e.Search(ctx, p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatalf("repeat request missed the cache: %+v", info)
	}
	if warm != cold {
		t.Fatal("same-N hit should return the cached result as-is")
	}

	ext, info, err := e.Search(ctx, p, core.Options{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatalf("different-N request missed the cache: %+v", info)
	}
	if ext.N != 20 {
		t.Fatalf("extended N = %d", ext.N)
	}
	if ext.Repetend != cold.Repetend {
		t.Fatal("extension re-searched the repetend")
	}
	// Every cache hit reports the originating search's effort, whether it
	// returned the cached result directly or extended it.
	if ext.Stats != cold.Stats {
		t.Fatalf("extended hit stats %+v != originating search stats %+v", ext.Stats, cold.Stats)
	}
	if err := ext.Full.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Shared != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFingerprintStability: a placement decoded, cloned, or rebuilt must
// share a cache entry with the original.
func TestFingerprintStability(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := vshape(t)
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, p.Clone(), core.Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("clone missed the cache")
	}
	q := vshape(t)
	_, info, err = e.Search(ctx, q, core.Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("rebuilt placement missed the cache")
	}
}

// TestOptionNormalization: option spellings core.Search treats identically
// must share a key (Memory 0 vs Unbounded, zero vs default budgets).
func TestOptionNormalization(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := vshape(t)
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, p, core.Options{
		N:              4,
		Memory:         sched.Unbounded,
		MaxAssignments: core.DefaultMaxAssignments,
		SolverNodes:    core.DefaultSolverNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("normalized-equal options missed the cache")
	}
	// A genuinely different option must not share the entry.
	_, info, err = e.Search(ctx, p, core.Options{N: 4, SimpleCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Shared {
		t.Fatal("different compaction mode hit the cache")
	}
}

// TestSolverWorkersKeyClass: every explicit per-solve worker count runs the
// deterministic root-split search and returns byte-identical schedules, so
// W=2 and W=8 must share one cache entry; the auto setting runs the
// single-threaded engine (whose equally-optimal schedule choice can differ)
// and must not alias with the explicit class. Negative counts are a caller bug
// and are rejected up front as invalid requests.
func TestSolverWorkersKeyClass(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := vshape(t)
	if _, _, err := e.Search(ctx, p, core.Options{N: 4, SolverWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, p, core.Options{N: 4, SolverWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("explicit worker counts 2 and 8 did not share a cache entry")
	}
	_, info, err = e.Search(ctx, p, core.Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Shared {
		t.Fatal("auto worker resolution aliased with the explicit class")
	}
	_, _, err = e.Search(ctx, p, core.Options{N: 4, SolverWorkers: -1})
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("negative solver workers: want ErrInvalidRequest, got %v", err)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("expected 2 cold searches, got %d", st.Misses)
	}
}

// TestSingleflight launches concurrent identical cold requests and checks
// exactly one search ran; the rest either coalesced onto it or (if they
// arrived after it finished) hit the cache.
func TestSingleflight(t *testing.T) {
	e := New(Options{})
	p := mshape(t)
	const g = 8
	var wg sync.WaitGroup
	infos := make([]CacheInfo, g)
	errs := make([]error, g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, infos[i], errs[i] = e.Search(context.Background(), p, core.Options{N: 12})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Misses != 1 {
		t.Fatalf("expected exactly one search, got %d misses (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Shared != g-1 {
		t.Fatalf("hits %d + shared %d != %d", st.Hits, st.Shared, g-1)
	}
}

// TestLRUEviction: with capacity 1, alternating placements evict each other
// and re-searching the first is a miss again.
func TestLRUEviction(t *testing.T) {
	e := New(Options{CacheSize: 1})
	ctx := context.Background()
	a, b := vshape(t), mshape(t)
	if _, _, err := e.Search(ctx, a, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Search(ctx, b, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, a, core.Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit {
		t.Fatal("evicted entry served a hit")
	}
	st := e.Stats()
	if st.Evictions == 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchCancelledContext: a cancelled context is rejected without
// polluting the cache.
func TestSearchCancelledContext(t *testing.T) {
	e := New(Options{})
	p := vshape(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled search cached an entry: %+v", st)
	}
	// The same placement must still be searchable afterwards.
	if _, _, err := e.Search(context.Background(), p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeNRejected: a negative micro-batch count is an error at every
// layer (previously a makeslice panic deep in the solver), and it must not
// strand the singleflight slot for the key.
func TestNegativeNRejected(t *testing.T) {
	e := New(Options{})
	p := vshape(t)
	ctx := context.Background()
	if _, _, err := e.Search(ctx, p, core.Options{N: -5}); err == nil {
		t.Fatal("negative N accepted")
	}
	// The key must be usable immediately afterwards.
	if _, _, err := e.Search(ctx, p, core.Options{N: -5}); err == nil {
		t.Fatal("negative N accepted on retry")
	}
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatalf("key unusable after failed search: %v", err)
	}
}

// TestConcurrentSearchCap: with the cold-search semaphore at 1, distinct
// placements still all complete (serialized, not rejected), and a cancelled
// waiter gets its own ctx error without disturbing the slot.
func TestConcurrentSearchCap(t *testing.T) {
	e := New(Options{MaxConcurrentSearches: 1})
	ctx := context.Background()
	placements := []*sched.Placement{vshape(t), mshape(t)}
	var wg sync.WaitGroup
	errs := make([]error, len(placements))
	for i, p := range placements {
		wg.Add(1)
		go func(i int, p *sched.Placement) {
			defer wg.Done()
			_, _, errs[i] = e.Search(ctx, p, core.Options{N: 4})
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchInvalidRequestTyped: request-validation failures are wrapped in
// ErrInvalidRequest so protocol front-ends can map them to 400s.
func TestSearchInvalidRequestTyped(t *testing.T) {
	eng := New(Options{})
	if _, _, err := eng.Search(context.Background(), vshape(t), core.Options{N: -1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("negative N: want ErrInvalidRequest, got %v", err)
	}
	bad := &sched.Placement{Name: "bad", NumDevices: 1,
		Stages: []sched.Stage{{Name: "s", Time: 1}}, Deps: [][]int{nil}}
	if _, _, err := eng.Search(context.Background(), bad, core.Options{}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("invalid placement: want ErrInvalidRequest, got %v", err)
	}
	// A well-formed but unsatisfiable request is a search failure, not an
	// invalid request: this placement's activation spike never fits the
	// memory capacity.
	heavy := &sched.Placement{Name: "heavy", NumDevices: 1,
		Stages: []sched.Stage{
			{Name: "f", Kind: sched.Forward, Time: 1, Mem: 5, Devices: []sched.DeviceID{0}},
			{Name: "b", Kind: sched.Backward, Time: 1, Mem: -5, Devices: []sched.DeviceID{0}},
		},
		Deps: [][]int{{1}, nil}}
	if _, _, err := eng.Search(context.Background(), heavy, core.Options{Memory: 3}); err == nil || errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("infeasible search: want a non-request error, got %v", err)
	}
}
