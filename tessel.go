// Package tessel is a from-scratch reproduction of "Tessel: Boosting
// Distributed Execution of Large DNN Models via Flexible Schedule Search"
// (HPCA 2024). Given an operator placement strategy — which device(s) run
// which blocks of a DNN micro-batch, with integer time and memory costs —
// Tessel automatically searches for an efficient pipeline schedule for any
// number of micro-batches, for both training and inference.
//
// The package re-exports the library's public surface:
//
//   - placement construction: the paper's V/X/M/K/NN shapes
//     (NewVShape, …) or arbitrary custom placements (Placement, Stage);
//   - schedule search: Search / SearchContext (the paper's Algorithm 1,
//     cancellable via context), TimeOptimal (the exact whole-problem
//     baseline), Extend (§III-C generalization to any micro-batch count);
//   - serving: NewEngine, a concurrency-safe front-end that fingerprints
//     placements (Fingerprint), caches searched repetends, and serves
//     repeat requests for any N without re-searching;
//   - predefined baselines: OneFOneB, OneFOneBPlus, GPipe, ChimeraDirect;
//   - runtime instantiation and simulation: Instantiate, Simulate;
//   - rendering: Render.
//
// A minimal session:
//
//	p, _ := tessel.NewVShape(tessel.ShapeConfig{Devices: 4})
//	res, _ := tessel.Search(p, tessel.SearchOptions{N: 16})
//	fmt.Print(tessel.Render(res.Full, tessel.RenderOptions{}))
package tessel

import (
	"context"

	"tessel/internal/baseline"
	"tessel/internal/codegen"
	"tessel/internal/core"
	"tessel/internal/engine"
	"tessel/internal/peer"
	"tessel/internal/placement"
	"tessel/internal/runtime"
	"tessel/internal/sched"
	"tessel/internal/sim"
	"tessel/internal/solver"
	"tessel/internal/trace"
	"tessel/internal/viz"
)

// Core scheduling types (see internal/sched for full documentation).
type (
	// Placement is an operator placement strategy: K blocks per
	// micro-batch with times, memory deltas, devices, and dependencies.
	Placement = sched.Placement
	// Stage is one block template of a placement.
	Stage = sched.Stage
	// Block identifies stage i of micro-batch n.
	Block = sched.Block
	// Schedule assigns start times to blocks.
	Schedule = sched.Schedule
	// DeviceID numbers devices 0..D−1.
	DeviceID = sched.DeviceID
	// Kind distinguishes forward/backward/aux blocks.
	Kind = sched.Kind
	// ValidateOptions parameterizes Schedule.Validate.
	ValidateOptions = sched.ValidateOptions
)

// Block kinds.
const (
	Forward  = sched.Forward
	Backward = sched.Backward
	Aux      = sched.Aux
)

// Unbounded disables a memory constraint.
const Unbounded = sched.Unbounded

// ShapeConfig parameterizes the named placement builders.
type ShapeConfig = placement.Config

// Named placement builders (paper Figure 1).
var (
	// NewVShape builds the sequential pipeline (1F1B's placement).
	NewVShape = placement.VShape
	// NewXShape builds the bidirectional pipeline (Chimera's placement).
	NewXShape = placement.XShape
	// NewMShape distributes memory-heavy layers across all devices (GPT).
	NewMShape = placement.MShape
	// NewKShape places independent branches on device halves (Flava).
	NewKShape = placement.KShape
	// NewNNShape shares devices between encoder and decoder stages (mT5).
	NewNNShape = placement.NNShape
	// InferenceVariant strips backward blocks from a training placement.
	InferenceVariant = placement.Inference
)

// SearchOptions configures Search (see internal/core.Options).
type SearchOptions = core.Options

// SearchResult is a completed search: the best repetend, the warmup /
// body / cooldown phases, and the full N-micro-batch schedule.
type SearchResult = core.Result

// Search runs the paper's Algorithm 1: repetend construction, schedule
// completion, and extension to opts.N micro-batches. It is SearchContext
// with a background context; use SearchContext when the caller needs to
// cancel or deadline-bound the search.
func Search(p *Placement, opts SearchOptions) (*SearchResult, error) {
	return core.Search(context.Background(), p, opts)
}

// SearchContext runs the paper's Algorithm 1 under ctx: cancelling ctx (or
// exceeding its deadline) promptly stops every in-flight solver worker and
// returns ctx's error.
func SearchContext(ctx context.Context, p *Placement, opts SearchOptions) (*SearchResult, error) {
	return core.Search(ctx, p, opts)
}

// TimeOptimal solves the whole scheduling problem exactly — the "TO"
// baseline whose cost explodes with micro-batches (paper Figure 3).
func TimeOptimal(p *Placement, n int, opts SearchOptions) (*Schedule, SolverResult, error) {
	return core.TimeOptimal(context.Background(), p, n, opts)
}

// TimeOptimalContext is TimeOptimal under a cancellable context.
func TimeOptimalContext(ctx context.Context, p *Placement, n int, opts SearchOptions) (*Schedule, SolverResult, error) {
	return core.TimeOptimal(ctx, p, n, opts)
}

// SolverResult reports a raw exact-solver outcome (see internal/solver).
type SolverResult = solver.Result

// ResolveSolverWorkers maps SearchOptions.SolverWorkers to the effective
// per-solve branch-and-bound worker count: explicit requests ≥ 1 are
// honored verbatim (the deterministic root-split search), while 0 (the
// default) and negative values resolve to 0, the single-threaded search.
// Callers exposing worker configuration (CLIs, servers) use it to report
// what a setting will actually do.
var ResolveSolverWorkers = solver.ResolveWorkers

// MaxInflight computes the paper's CalMaxInflight bound.
var MaxInflight = core.MaxInflight

// Baseline schedules (paper §VI-A).
var (
	// OneFOneB is the 1F1B schedule for V-shape placements.
	OneFOneB = baseline.OneFOneB
	// OneFOneBPlus adapts 1F1B to placements with tensor-parallel blocks.
	OneFOneBPlus = baseline.OneFOneBPlus
	// GPipe flushes all forwards then all backwards.
	GPipe = baseline.GPipe
	// ChimeraDirect is the bidirectional Chimera schedule for X-shapes.
	ChimeraDirect = baseline.ChimeraDirect
	// Sequential runs micro-batches one at a time.
	Sequential = baseline.Sequential
	// TensorParallelPlacement shards every stage across all devices.
	TensorParallelPlacement = baseline.TensorParallelPlacement
	// SteadyBubble measures a schedule's steady-state bubble rate.
	SteadyBubble = baseline.SteadyBubble
)

// Runtime instantiation (paper §IV-D).
type (
	// Program is the per-device instruction lists with communication.
	Program = runtime.Program
	// InstantiateOptions selects blocking vs non-blocking communication.
	InstantiateOptions = runtime.Options
)

// Instantiate converts a schedule into executable per-device programs with
// send/recv primitives inserted in deadlock-free order.
func Instantiate(s *Schedule, opts InstantiateOptions) (*Program, error) {
	return runtime.Instantiate(s, opts)
}

// Simulation (the testbed substitute).
type (
	// SimConfig is the hardware model (bandwidths, latencies, servers).
	SimConfig = sim.Config
	// Trace is a simulation result with per-device timings.
	Trace = sim.Trace
)

// DefaultSimConfig models the paper's 8-GPU NVLink servers with 100 Gbps
// InfiniBand between them.
var DefaultSimConfig = sim.DefaultConfig

// Simulate instantiates and executes a schedule on the simulated cluster.
func Simulate(s *Schedule, rtOpts InstantiateOptions, cfg SimConfig) (*Trace, error) {
	return sim.Simulate(s, rtOpts, cfg)
}

// Serialization: versioned JSON for placements and schedules, usable for
// custom placement files and persisting searched schedules.
var (
	// EncodePlacement / DecodePlacement round-trip placements as JSON.
	EncodePlacement = sched.EncodePlacement
	DecodePlacement = sched.DecodePlacement
	// EncodeSchedule / DecodeSchedule round-trip self-contained schedules.
	EncodeSchedule = sched.EncodeSchedule
	DecodeSchedule = sched.DecodeSchedule
)

// CodegenOptions configures per-device code emission.
type CodegenOptions = codegen.Options

// GenerateCode emits the per-device PyTorch-flavored code of an
// instantiated program — the paper's final runtime-instantiation step.
func GenerateCode(prog *Program, opts CodegenOptions) (string, error) {
	return codegen.Program(prog, opts)
}

// WriteChromeTrace exports a simulation trace as Chrome trace-event JSON
// (chrome://tracing / Perfetto).
var WriteChromeTrace = trace.WriteChrome

// TraceSummary renders a per-device utilization table from a trace.
var TraceSummary = trace.Summary

// RenderOptions controls ASCII Gantt rendering.
type RenderOptions = viz.Options

// Render draws a schedule as an ASCII Gantt chart in the style of the
// paper's figures.
func Render(s *Schedule, opts RenderOptions) string {
	return viz.Render(s, opts)
}

// RenderRepetend renders a schedule with repetend-period marks.
var RenderRepetend = viz.RenderRepetend

// Extend rebuilds a searched schedule for a different micro-batch count
// without re-running the repetend sweep (§III-C schedule generalization).
func Extend(res *SearchResult, n int, opts SearchOptions) (*SearchResult, error) {
	return core.Extend(context.Background(), res, n, opts)
}

// ExtendContext is Extend under a cancellable context.
func ExtendContext(ctx context.Context, res *SearchResult, n int, opts SearchOptions) (*SearchResult, error) {
	return core.Extend(ctx, res, n, opts)
}

// Fingerprint returns the canonical SHA-256 fingerprint of a placement: a
// stable hex digest of the placement's structure, independent of how the
// placement value was built or serialized. The engine uses it as the cache
// identity of a search request.
var Fingerprint = sched.Fingerprint

// FingerprintSchedule returns the canonical SHA-256 fingerprint of a
// schedule (placement plus every start time). Search results are
// deterministic for any Workers setting, so equal requests yield equal
// schedule fingerprints — the property the serving cache relies on.
var FingerprintSchedule = sched.FingerprintSchedule

// Serving engine (see internal/engine): a concurrency-safe front-end over
// SearchContext that fingerprints placements, caches searched repetends in
// an LRU, serves repeat requests for any micro-batch count via Extend
// without re-searching, and coalesces concurrent identical requests.
type (
	// Engine is the cache-backed, deduplicating search front-end.
	Engine = engine.Engine
	// EngineOptions sizes the engine's repetend cache and its admission
	// limits (concurrency cap, wait queue, per-tenant budgets, degraded
	// search budget).
	EngineOptions = engine.Options
	// EngineStats is a snapshot of the engine's cache and admission
	// counters.
	EngineStats = engine.Stats
	// CacheInfo says how one Engine.Search call was served.
	CacheInfo = engine.CacheInfo
	// SearchRequest is one request at the Engine.Serve boundary: placement
	// and options plus the tenant attribution and degradation opt-in.
	SearchRequest = engine.Request
)

// NewEngine builds a serving engine with the given cache capacity.
var NewEngine = engine.New

// ErrSearchPanic marks an Engine.Search that failed with a recovered panic
// — a server bug, not a bad request.
//
// Deprecated: matches the same errors as ErrInternal; new code should use
// ErrInternal and inspect *InternalError for the fingerprint.
var ErrSearchPanic = engine.ErrSearchPanic

// ErrInternal marks (by unwrapping) an Engine search that failed from a
// recovered panic — a server bug, not a bad request or an unsatisfiable
// search. The concrete error is an *InternalError.
var ErrInternal = engine.ErrInternal

// InternalError is the structured form of ErrInternal: the placement
// fingerprint whose search panicked plus the recovered value.
type InternalError = engine.InternalError

// ErrOverloaded marks (by unwrapping) an Engine request refused by
// admission control: the cold-search queue was full, the queue wait ran
// out, or the tenant budget was exhausted. The concrete error is an
// *OverloadError carrying a Retry-After hint.
var ErrOverloaded = engine.ErrOverloaded

// OverloadError is the structured form of ErrOverloaded.
type OverloadError = engine.OverloadError

// ErrInvalidRequest marks an Engine.Search rejected for an invalid
// placement or option values — a client error (400), not a search failure.
var ErrInvalidRequest = engine.ErrInvalidRequest

// DefaultEngineCacheSize is the engine's cache capacity when
// EngineOptions.CacheSize is zero.
const DefaultEngineCacheSize = engine.DefaultCacheSize

// Multi-replica peer tier (see internal/peer): a consistent-hash ring over
// a static replica list with a bounded, circuit-broken peer fetch the
// engine tries on a cold miss before paying a cold search. Replicas
// exchange cache entries in the checksummed snapshot format and every
// fetched entry is re-validated exactly like a boot restore.
type (
	// PeerClient is the fetching side of the peer tier; it implements
	// PeerTier and is installed on an Engine with Engine.SetPeerTier.
	PeerClient = peer.Client
	// PeerClientOptions configures a PeerClient: the static ring (Self +
	// Peers), fetch deadlines and retries, breaker thresholds, and the
	// health-prober cadence.
	PeerClientOptions = peer.ClientOptions
	// PeerServer serves the peer interchange endpoints (/v1/peer/entry,
	// /v1/peer/health) from a replica's cache.
	PeerServer = peer.Server
	// PeerTier is the engine-side hook a replica cache tier implements.
	PeerTier = engine.PeerTier
	// PeerStats is a snapshot of a peer tier's counters.
	PeerStats = engine.PeerStats
	// PeerRing is the deterministic consistent-hash ring.
	PeerRing = peer.Ring
)

// NewPeerClient builds the peer tier client around an engine.
var NewPeerClient = peer.NewClient

// NewPeerServer builds the peer-facing HTTP handlers around an engine.
var NewPeerServer = peer.NewServer

// DefaultDegradedSolverNodes is the per-solve node cap of degraded
// (best-effort) searches when EngineOptions.DegradedSolverNodes is zero.
const DefaultDegradedSolverNodes = engine.DefaultDegradedSolverNodes
