package main

// The serve subcommand turns the library into a long-running schedule-search
// service: a JSON-over-HTTP front-end over tessel.Engine, so repeated
// requests for a placement are answered from the repetend cache via the
// §III-C schedule generalization instead of re-running the N_R sweep, and
// concurrent identical requests coalesce into one search.
//
//	tessel serve -addr :8080 -cache-size 128 -search-timeout 60s
//
//	curl -s localhost:8080/v1/search -d '{
//	  "placement": {"name":"v-shape","num_devices":2,
//	    "stages":[{"name":"f0","time":1,"mem":1,"devices":[0]},
//	              {"name":"f1","time":1,"mem":1,"devices":[1]},
//	              {"name":"b1","kind":"backward","time":2,"mem":-1,"devices":[1]},
//	              {"name":"b0","kind":"backward","time":2,"mem":-1,"devices":[0]}],
//	    "deps":[[1],[2],[3],[]]},
//	  "options": {"n": 8}
//	}'
//
// Every response carries the placement fingerprint and whether the request
// hit the cache or shared an in-flight search. GET /v1/stats reports the
// engine counters; SIGINT/SIGTERM drain in-flight requests gracefully.
//
// The serving tier is resilient by default: cold searches pass through
// admission control (-max-concurrent-searches, -max-queued-searches,
// -queue-wait, -tenant-rate) and refused requests get 429 with Retry-After
// — or a node-capped best-effort answer when they set allow_degraded; the
// repetend cache snapshots to -snapshot on SIGTERM and every
// -snapshot-interval (bounded-retry writes, failures counted), and restores
// at boot (readiness gated by /readyz), so a restart keeps previously-solved
// fingerprints warm.
//
// Multi-replica deployments give every replica the identical -peers list
// (including itself, named by -peer-self): placement fingerprints route to
// owner replicas on a consistent-hash ring, and a cold miss tries a bounded
// peer fetch (deadline-boxed, retried with backoff, per-peer circuit
// breakers, async health ejection) before paying a cold search. Replicas
// serve each other entries from GET /v1/peer/entry in the checksummed
// snapshot format and every fetched entry is re-validated like a boot
// restore, so a slow, dead, or lying peer degrades to a cold search — never
// a poisoned cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tessel"
)

// maxRequestBytes bounds a /v1/search request body.
const maxRequestBytes = 1 << 20

// DefaultMaxN is the default cap on a request's micro-batch count. The
// schedule grows linearly in N (N·K blocks, unrolled and JSON-encoded), so
// an unbounded N would let one request exhaust server memory.
const DefaultMaxN = 4096

// searchRequest is the wire form of one search request. The placement uses
// the same versioned JSON as `tessel -placement` files.
type searchRequest struct {
	Placement json.RawMessage      `json:"placement"`
	Options   searchRequestOptions `json:"options"`
	// Tenant attributes the request to a per-tenant admission budget
	// (-tenant-rate); empty is a valid (shared) tenant.
	Tenant string `json:"tenant"`
}

type searchRequestOptions struct {
	N               int   `json:"n"`
	Memory          int   `json:"memory"`
	MaxNR           int   `json:"max_nr"`
	MaxAssignments  int   `json:"max_assignments"`
	SolverNodes     int64 `json:"solver_nodes"`
	SolverTimeoutMS int64 `json:"solver_timeout_ms"`
	// SolverWorkers is the per-solve branch-and-bound worker count: ≥ 1
	// runs the deterministic root-split search with that many workers,
	// 0 = sequential (the single-threaded search), absent uses the
	// server's -solver-workers default. Negative values are rejected.
	SolverWorkers      *int `json:"solver_workers"`
	DisableLazy        bool `json:"disable_lazy"`
	SimpleCompaction   bool `json:"simple_compaction"`
	DisableLocalSearch bool `json:"disable_local_search"`
	// AllowDegraded opts in to a node-capped best-effort search when
	// admission control would otherwise shed the request with 429. The
	// response marks such results with "degraded": true.
	AllowDegraded bool `json:"allow_degraded"`
}

type searchResponse struct {
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`
	Shared      bool   `json:"shared"`
	// Degraded marks a best-effort result from a node-capped search under
	// overload — valid, but not proven optimal and never cached.
	Degraded bool `json:"degraded"`
	// PeerHit marks a result fetched (and re-validated) from a peer
	// replica's cache instead of cold-searched here.
	PeerHit    bool            `json:"peer_hit"`
	N          int             `json:"n"`
	Makespan   int             `json:"makespan"`
	LowerBound int             `json:"lower_bound"`
	Period     int             `json:"period"`
	NR         int             `json:"nr"`
	Assignment []int           `json:"assignment"`
	BubbleRate float64         `json:"bubble_rate"`
	Stats      searchStatsJSON `json:"stats"`
	Schedule   json.RawMessage `json:"schedule"`
}

type searchStatsJSON struct {
	Assignments int `json:"assignments"`
	Solved      int `json:"solved"`
	Pruned      int `json:"pruned"`
	Improved    int `json:"improved"`
	// NRSwept is the largest repetend count N_R the sweep reached before
	// settling, the serving-side measure of sweep effort per request.
	NRSwept     int   `json:"nr_swept"`
	SolverNodes int64 `json:"solver_nodes"`
	// MemoHits is the number of solver nodes pruned by the dominance memo
	// across the repetend instance solves.
	MemoHits int64 `json:"memo_hits"`
	// SharedMemoHits is the number of solver nodes pruned by the parallel
	// solver's cross-job shared memo tier (disjoint from MemoHits; zero
	// when the solves ran single-threaded).
	SharedMemoHits int64 `json:"shared_memo_hits"`
	// JobsStolen is the number of oversized root-split solver jobs
	// deterministically re-split across the repetend instance solves.
	JobsStolen int64 `json:"jobs_stolen"`
	// NodesPerSec is the repetend-phase solver node throughput — the
	// serving-side health measure of the allocation-free solver core.
	NodesPerSec float64 `json:"nodes_per_sec"`
	// PeriodProbes / PeriodRelaxations count the period-feasibility probes
	// and their distance tightenings across the sweep's repetend
	// evaluations — the serving-side health measures of the incremental
	// period engine (the repetend phase's other hot path).
	PeriodProbes      int64 `json:"period_probes"`
	PeriodRelaxations int64 `json:"period_relaxations"`
	// LocalSearchSwaps counts candidate order swaps the repetend local
	// search evaluated.
	LocalSearchSwaps int64 `json:"local_search_swaps"`
	// SolverWorkers is the effective per-solve branch-and-bound worker
	// count the repetend instance solves ran with (0 = single-threaded).
	SolverWorkers int   `json:"solver_workers"`
	EarlyExit     bool  `json:"early_exit"`
	Truncated     bool  `json:"truncated"`
	TotalMS       int64 `json:"total_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// server holds the serve subcommand's state: the engine and the per-request
// search deadline.
type server struct {
	engine        *tessel.Engine
	searchTimeout time.Duration // per-request deadline
	solverTimeout time.Duration // default per-solve budget
	maxN          int           // cap on requested micro-batches
	solverWorkers int           // default per-solve worker count (0 = sequential)
	snapshotPath  string        // cache snapshot file ("" = persistence off)
	// peerClient is the multi-replica cache tier (nil = single replica).
	peerClient *tessel.PeerClient
	// ready flips once the boot-time snapshot restore has finished (or
	// immediately when persistence is off); /readyz reports 503 until then
	// so load balancers don't route to a cold replica.
	ready atomic.Bool
}

// snapshotWriteAttempts / snapshotWriteBackoff bound the snapshot write
// retry loop: a transiently failing disk (full, EIO, slow NFS) gets three
// chances with doubling backoff before the warm state is given up for this
// round — and every failed attempt is counted in snapshot_write_errors, so
// the loss is visible on /v1/stats either way.
const (
	snapshotWriteAttempts = 3
	snapshotWriteBackoff  = 100 * time.Millisecond
)

// writeSnapshot saves the cache snapshot with bounded retry. It returns
// the last error when every attempt failed.
func (s *server) writeSnapshot() error {
	backoff := snapshotWriteBackoff
	var err error
	for attempt := 1; attempt <= snapshotWriteAttempts; attempt++ {
		if err = s.engine.SaveSnapshot(s.snapshotPath); err == nil {
			return nil
		}
		log.Printf("tessel serve: snapshot write attempt %d/%d: %v", attempt, snapshotWriteAttempts, err)
		if attempt < snapshotWriteAttempts {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return err
}

// runServe is the entry point of `tessel serve`.
func runServe(args []string) {
	fs := flag.NewFlagSet("tessel serve", flag.ExitOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		cacheSize     = fs.Int("cache-size", tessel.DefaultEngineCacheSize, "repetend cache capacity (searched placements)")
		searchTimeout = fs.Duration("search-timeout", 60*time.Second, "per-request search deadline")
		solverTimeout = fs.Duration("solver-timeout", 10*time.Second, "default per-solve budget when the request sets none")
		maxN          = fs.Int("max-n", DefaultMaxN, "largest micro-batch count a request may ask for")
		maxSearches   = fs.Int("max-concurrent-searches", 2, "cold searches running at once (each saturates the CPU; 0 = unlimited)")
		maxQueued     = fs.Int("max-queued-searches", 64, "cold searches that may wait for a slot (0 = unlimited, negative = none)")
		queueWait     = fs.Duration("queue-wait", 5*time.Second, "longest a queued cold search waits before 429 (0 = until the request deadline)")
		tenantRate    = fs.Float64("tenant-rate", 0, "per-tenant cold searches per second (0 = no tenant budgets)")
		tenantBurst   = fs.Int("tenant-burst", 4, "per-tenant cold-search burst capacity")
		degradedNodes = fs.Int64("degraded-solver-nodes", 0, "per-solve node cap of allow_degraded searches (0 = default)")
		snapshotPath  = fs.String("snapshot", "", "cache snapshot file, restored at boot and written on SIGTERM and periodically (\"\" = off)")
		snapshotEvery = fs.Duration("snapshot-interval", 5*time.Minute, "period between cache snapshots when -snapshot is set")
		solverWorkers = fs.Int("solver-workers", 0, "default per-solve branch-and-bound workers when the request sets none (0 = sequential)")

		peers           = fs.String("peers", "", "comma-separated replica addresses forming the consistent-hash peer ring; identical on every replica and must include -peer-self (\"\" = single replica)")
		peerSelf        = fs.String("peer-self", "", "this replica's own address exactly as it appears in -peers")
		peerTimeout     = fs.Duration("peer-timeout", 250*time.Millisecond, "per-attempt deadline of one peer entry fetch")
		peerAttempts    = fs.Int("peer-attempts", 2, "fetch attempts per peer including the first (1 = no retries)")
		peerFetchBudget = fs.Duration("peer-fetch-budget", 2*time.Second, "cap on the whole peer-fetch phase of one cold miss")
		breakerFails    = fs.Int("peer-breaker-failures", 3, "consecutive failed attempts that open a peer's circuit breaker")
		breakerCooldown = fs.Duration("peer-breaker-cooldown", 2*time.Second, "how long an open breaker refuses a peer before a half-open probe")
		probeInterval   = fs.Duration("peer-probe-interval", time.Second, "period between async health probes that eject/readmit peers from the ring")
	)
	fs.Parse(args)
	if *solverWorkers < 0 {
		log.Fatalf("tessel serve: -solver-workers must be non-negative, got %d", *solverWorkers)
	}
	if *peers != "" && *peerSelf == "" {
		log.Fatalf("tessel serve: -peers requires -peer-self (this replica's own address in the list)")
	}

	s := &server{
		engine: tessel.NewEngine(tessel.EngineOptions{
			CacheSize:             *cacheSize,
			MaxConcurrentSearches: *maxSearches,
			MaxQueuedSearches:     *maxQueued,
			QueueWait:             *queueWait,
			TenantRate:            *tenantRate,
			TenantBurst:           *tenantBurst,
			DegradedSolverNodes:   *degradedNodes,
			PeerFetchBudget:       *peerFetchBudget,
		}),
		searchTimeout: *searchTimeout,
		solverTimeout: *solverTimeout,
		maxN:          *maxN,
		solverWorkers: *solverWorkers,
		snapshotPath:  *snapshotPath,
	}
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		client, err := tessel.NewPeerClient(s.engine, tessel.PeerClientOptions{
			Self:            *peerSelf,
			Peers:           list,
			AttemptTimeout:  *peerTimeout,
			Attempts:        *peerAttempts,
			BreakerFailures: *breakerFails,
			BreakerCooldown: *breakerCooldown,
			ProbeInterval:   *probeInterval,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatalf("tessel serve: %v", err)
		}
		s.peerClient = client
		s.engine.SetPeerTier(client)
		log.Printf("tessel serve: %s", client)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.mux(),
		// Transport-level bounds against stalled clients; handler time is
		// bounded separately by -search-timeout, so no WriteTimeout (it
		// would cut off slow searches mid-response).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if s.peerClient != nil {
		// Async health probes eject dead peers from the ring (and readmit
		// recovered ones) so miss-path fetches stop wasting budget on them.
		go s.peerClient.RunProber(ctx)
	}

	// Restore the cache in the background so the listener binds immediately;
	// /readyz keeps the replica out of rotation until the restore finishes.
	// LoadSnapshot never fails the boot: a missing file is a first start and
	// a torn or stale snapshot degrades to a cold one with a logged warning.
	if s.snapshotPath == "" {
		s.ready.Store(true)
	} else {
		go func() {
			if n := s.engine.LoadSnapshot(s.snapshotPath); n > 0 {
				log.Printf("tessel serve: restored %d cached searches from %s", n, s.snapshotPath)
			}
			s.ready.Store(true)
		}()
		if *snapshotEvery > 0 {
			go func() {
				ticker := time.NewTicker(*snapshotEvery)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						if err := s.writeSnapshot(); err != nil {
							log.Printf("tessel serve: snapshot: giving up this round: %v", err)
						}
					case <-ctx.Done():
						return
					}
				}
			}()
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("tessel serve: listening on %s (cache %d, search timeout %s)", *addr, *cacheSize, *searchTimeout)

	select {
	case <-ctx.Done():
		log.Printf("tessel serve: shutting down")
		// Give drains the full search deadline plus a grace period, so an
		// in-flight search always gets to finish (or 504) before the
		// process exits. With no search deadline (-search-timeout 0) the
		// drain budget is 5 minutes.
		drain := 5 * time.Minute
		if s.searchTimeout > 0 {
			drain = s.searchTimeout + 5*time.Second
			if drain < 15*time.Second {
				drain = 15 * time.Second
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tessel serve: shutdown: %v", err)
		}
		<-errCh
		// Final snapshot after the drain, so the file captures every search
		// that completed before the process exits.
		if s.snapshotPath != "" {
			if err := s.writeSnapshot(); err != nil {
				log.Printf("tessel serve: final snapshot: %v", err)
			} else {
				log.Printf("tessel serve: cache snapshot written to %s", s.snapshotPath)
			}
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tessel serve: %v", err)
		}
	}
}

// mux builds the HTTP routes. Factored out of runServe so tests can drive
// the handler through httptest without a listener.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	// The peer interchange endpoints are always registered — a replica that
	// is not in any ring simply never gets called on them, and keeping them
	// unconditional means a rolling config change (adding -peers) needs no
	// route changes.
	tessel.NewPeerServer(s.engine, s.ready.Load).Register(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// /readyz is liveness plus warmth: it reports 503 until the boot-time
	// snapshot restore has finished, so load balancers keep traffic off a
	// replica that would serve everything cold. /healthz stays 200 the whole
	// time — the process is alive, just not preferred. The JSON body names
	// the reason and, on multi-replica deployments, the local view of the
	// peer ring so an operator can tell "restoring" from "ring partitioned"
	// at a glance.
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// readyzJSON is the /readyz body: machine-checkable readiness plus the
// human-facing reason and the replica's view of its peer ring.
type readyzJSON struct {
	Ready bool `json:"ready"`
	// Reason is "ok", "restoring" (boot snapshot restore still running), or
	// "degraded-ring" (ready, but some configured peers are ejected —
	// served traffic is fine, peer fetches just miss more).
	Reason string `json:"reason"`
	// PeersConfigured / PeersHealthy describe the consistent-hash ring:
	// remote replicas configured via -peers and how many are currently in
	// the ring (both 0 on a single replica).
	PeersConfigured int `json:"peers_configured"`
	PeersHealthy    int `json:"peers_healthy"`
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzJSON{Ready: s.ready.Load(), Reason: "ok"}
	if s.peerClient != nil {
		body.PeersConfigured, body.PeersHealthy = s.peerClient.HealthSummary()
	}
	status := http.StatusOK
	switch {
	case !body.Ready:
		body.Reason = "restoring"
		status = http.StatusServiceUnavailable
	case body.PeersHealthy < body.PeersConfigured:
		// Still ready — the replica answers every request itself if it must —
		// but surfaced so operators see a partitioned ring before it matters.
		body.Reason = "degraded-ring"
	}
	writeJSON(w, status, body)
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req searchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if len(req.Placement) == 0 {
		writeError(w, http.StatusBadRequest, "request needs a placement")
		return
	}
	p, err := tessel.DecodePlacement(bytes.NewReader(req.Placement))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Options.N > s.maxN {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("n %d exceeds the server cap %d", req.Options.N, s.maxN))
		return
	}
	opts := tessel.SearchOptions{
		N:                  req.Options.N,
		Memory:             req.Options.Memory,
		MaxNR:              req.Options.MaxNR,
		MaxAssignments:     req.Options.MaxAssignments,
		SolverNodes:        req.Options.SolverNodes,
		SolverTimeout:      s.solverTimeout,
		SolverWorkers:      s.solverWorkers,
		DisableLazy:        req.Options.DisableLazy,
		SimpleCompaction:   req.Options.SimpleCompaction,
		DisableLocalSearch: req.Options.DisableLocalSearch,
	}
	if req.Options.SolverTimeoutMS > 0 {
		opts.SolverTimeout = time.Duration(req.Options.SolverTimeoutMS) * time.Millisecond
	}
	if req.Options.SolverWorkers != nil {
		if *req.Options.SolverWorkers < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("solver_workers must be non-negative, got %d", *req.Options.SolverWorkers))
			return
		}
		opts.SolverWorkers = *req.Options.SolverWorkers
	}

	ctx := r.Context()
	if s.searchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.searchTimeout)
		defer cancel()
	}
	res, info, err := s.engine.Serve(ctx, tessel.SearchRequest{
		Placement:     p,
		Options:       opts,
		Tenant:        req.Tenant,
		AllowDegraded: req.Options.AllowDegraded,
	})
	if err != nil {
		switch {
		case errors.Is(err, tessel.ErrOverloaded):
			// Shed load: tell the client when to come back. The engine's
			// OverloadError carries a reason-sized hint (tenant refill time
			// or the queue-wait cap).
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "search deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
			writeError(w, http.StatusServiceUnavailable, "search cancelled")
		case errors.Is(err, tessel.ErrInternal):
			// Server bug (recovered panic): the engine already logged the
			// fingerprint and recovered value once; return a generic 500.
			writeError(w, http.StatusInternalServerError, "internal search failure")
		case errors.Is(err, tessel.ErrInvalidRequest):
			// The request itself is malformed (e.g. a negative micro-batch
			// count): a client error, not an unprocessable search.
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			// The request was well-formed but the search could not satisfy
			// it (e.g. no feasible repetend within memory).
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}

	var schedBuf bytes.Buffer
	if err := tessel.EncodeSchedule(&schedBuf, res.Full); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := searchResponse{
		Fingerprint: info.Fingerprint,
		CacheHit:    info.Hit,
		Shared:      info.Shared,
		Degraded:    info.Degraded,
		PeerHit:     info.PeerHit,
		N:           res.N,
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		BubbleRate:  res.BubbleRate,
		Stats: searchStatsJSON{
			Assignments:       res.Stats.Assignments,
			Solved:            res.Stats.Solved,
			Pruned:            res.Stats.Pruned,
			Improved:          res.Stats.Improved,
			NRSwept:           res.Stats.NRSwept,
			SolverNodes:       res.Stats.SolverNodes,
			MemoHits:          res.Stats.SolverMemoHits,
			SharedMemoHits:    res.Stats.SolverSharedMemoHits,
			JobsStolen:        res.Stats.SolverJobsStolen,
			NodesPerSec:       res.Stats.NodesPerSec(),
			PeriodProbes:      res.Stats.PeriodProbes,
			PeriodRelaxations: res.Stats.PeriodRelaxations,
			LocalSearchSwaps:  res.Stats.LocalSearchSwaps,
			SolverWorkers:     res.Stats.SolverWorkers,
			EarlyExit:         res.Stats.EarlyExit,
			Truncated:         res.Stats.Truncated,
			TotalMS:           res.Stats.Total.Milliseconds(),
		},
		Schedule: schedBuf.Bytes(),
	}
	// A successful search always carries a repetend today, but the guard
	// keeps a malformed (e.g. directly-solved future) result from crashing
	// the handler mid-response.
	if res.Repetend != nil {
		resp.Period = res.Repetend.Period
		resp.NR = res.Repetend.NR
		resp.Assignment = []int(res.Repetend.Assign)
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveStatsJSON is the wire form of /v1/stats: every engine counter
// (tessel-lint's counterparity analyzer enforces the engine.Stats →
// serveStatsJSON mapping) plus the server's worker configuration and
// readiness.
type serveStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Shared    uint64 `json:"shared"`
	Evictions uint64 `json:"evictions"`
	// Admitted / Queued / Shed / Degraded are the admission-control
	// counters: cold searches admitted (Queued of them after a wait),
	// requests refused with 429, and requests served best-effort.
	Admitted uint64 `json:"admitted"`
	Queued   uint64 `json:"queued"`
	Shed     uint64 `json:"shed"`
	Degraded uint64 `json:"degraded"`
	// Restored counts cache entries loaded from the boot snapshot.
	Restored uint64 `json:"restored"`
	// SharedMemoHits / JobsStolen are the engine-lifetime totals of the
	// parallel solver's cross-job memo prunes and deterministic job splits.
	SharedMemoHits uint64 `json:"shared_memo_hits"`
	JobsStolen     uint64 `json:"jobs_stolen"`
	// SnapshotWriteErrors counts failed snapshot write attempts (each retry
	// that fails counts once), so silent persistence loss shows up here.
	SnapshotWriteErrors uint64 `json:"snapshot_write_errors"`
	// PeerHits .. BreakerOpen are the multi-replica cache tier counters:
	// misses served from a peer replica's cache, fetch rounds that found no
	// peer copy, failed fetch attempts, retries after a failed attempt, and
	// circuit-breaker open transitions. PeersHealthy is the current count of
	// remote peers in the ring (all zero on a single replica).
	PeerHits     uint64 `json:"peer_hits"`
	PeerMisses   uint64 `json:"peer_misses"`
	PeerErrors   uint64 `json:"peer_errors"`
	PeerRetries  uint64 `json:"peer_retries"`
	BreakerOpen  uint64 `json:"breaker_open"`
	PeersHealthy int    `json:"peers_healthy"`
	Entries      int    `json:"entries"`
	// Ready mirrors /readyz: false until the snapshot restore finished.
	Ready bool `json:"ready"`
	// SolverWorkers is the configured per-solve worker default;
	// SolverWorkersEffective is the worker count it resolves to
	// (0 = sequential, the default).
	SolverWorkers          int `json:"solver_workers"`
	SolverWorkersEffective int `json:"solver_workers_effective"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.engine.Stats()
	writeJSON(w, http.StatusOK, serveStatsJSON{
		Hits:                   st.Hits,
		Misses:                 st.Misses,
		Shared:                 st.Shared,
		Evictions:              st.Evictions,
		Admitted:               st.Admitted,
		Queued:                 st.Queued,
		Shed:                   st.Shed,
		Degraded:               st.Degraded,
		Restored:               st.Restored,
		SharedMemoHits:         st.SharedMemoHits,
		JobsStolen:             st.JobsStolen,
		SnapshotWriteErrors:    st.SnapshotWriteErrors,
		PeerHits:               st.PeerHits,
		PeerMisses:             st.PeerMisses,
		PeerErrors:             st.PeerErrors,
		PeerRetries:            st.PeerRetries,
		BreakerOpen:            st.BreakerOpen,
		PeersHealthy:           st.PeersHealthy,
		Entries:                st.Entries,
		Ready:                  s.ready.Load(),
		SolverWorkers:          s.solverWorkers,
		SolverWorkersEffective: tessel.ResolveSolverWorkers(s.solverWorkers),
	})
}

// retryAfterSeconds converts an overload error's back-off hint to whole
// seconds for the Retry-After header, rounding up with a floor of 1.
func retryAfterSeconds(err error) int {
	var oe *tessel.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	return 1
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("tessel serve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
