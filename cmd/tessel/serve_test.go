package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tessel"
	"tessel/internal/faultpoint"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	return &server{
		engine:        tessel.NewEngine(tessel.EngineOptions{}),
		searchTimeout: 30 * time.Second,
		solverTimeout: 5 * time.Second,
		maxN:          DefaultMaxN,
	}
}

func placementJSON(t *testing.T) []byte {
	t.Helper()
	p, err := tessel.NewVShape(tessel.ShapeConfig{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tessel.EncodePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSearch(t *testing.T, s *server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, req)
	return w
}

// TestServeSearchEndToEnd drives the handler twice with the same placement
// and checks the second response is flagged as a cache hit and agrees with
// the first on the makespan.
func TestServeSearchEndToEnd(t *testing.T) {
	s := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	var first, second searchResponse
	w := postSearch(t, s, string(body))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.N != 8 || first.Makespan <= 0 || first.Fingerprint == "" {
		t.Fatalf("first response: %+v", first)
	}
	// The solver-effort counters must be populated for a cold search.
	if first.Stats.SolverNodes <= 0 || first.Stats.NodesPerSec <= 0 {
		t.Fatalf("solver stats not populated: %+v", first.Stats)
	}
	if first.Stats.MemoHits < 0 || first.Stats.MemoHits > first.Stats.SolverNodes {
		t.Fatalf("memo hits out of range: %+v", first.Stats)
	}
	// A cold search sweeps at least one repetend count (counter parity with
	// core.Stats.NRSwept, enforced statically by the counterparity analyzer).
	if first.Stats.NRSwept <= 0 {
		t.Fatalf("nr_swept not populated: %+v", first.Stats)
	}
	// The period-machinery counters must be populated too: a default
	// (tight-compaction) search runs feasibility probes for every solved
	// repetend, and relaxations imply probes.
	if first.Stats.PeriodProbes <= 0 || first.Stats.PeriodRelaxations <= 0 {
		t.Fatalf("period stats not populated: %+v", first.Stats)
	}
	if first.Stats.LocalSearchSwaps < 0 {
		t.Fatalf("local search swaps negative: %+v", first.Stats)
	}
	// The embedded schedule must round-trip through the decoder.
	sched, err := tessel.DecodeSchedule(bytes.NewReader(first.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != first.Makespan {
		t.Fatalf("schedule makespan %d != reported %d", sched.Makespan(), first.Makespan)
	}

	w = postSearch(t, s, string(body))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if second.Makespan != first.Makespan || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cache hit disagrees: %+v vs %+v", second, first)
	}

	// Stats endpoint reflects the hit.
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, req)
	var st struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Admitted uint64 `json:"admitted"`
		Ready    bool   `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (the one cold search)", st.Admitted)
	}
}

// TestServeBadRequests covers the error paths: wrong method, bad JSON,
// missing placement, invalid placement.
func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t)

	req := httptest.NewRequest("GET", "/v1/search", nil)
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, req)
	if w.Code != 405 {
		t.Fatalf("GET status %d", w.Code)
	}

	if w := postSearch(t, s, "{not json"); w.Code != 400 {
		t.Fatalf("bad JSON status %d", w.Code)
	}
	if w := postSearch(t, s, `{"options":{"n":4}}`); w.Code != 400 {
		t.Fatalf("missing placement status %d", w.Code)
	}
	// Structurally invalid placement: stage with no devices.
	bad := `{"placement":{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[]}],"deps":[[]]}}`
	if w := postSearch(t, s, bad); w.Code != 400 {
		t.Fatalf("invalid placement status %d", w.Code)
	}
}

// TestServeNegativeN: a negative micro-batch count is a request-validation
// failure — a clean 400 (not 422, and not a handler panic) — and the same
// placement stays searchable.
func TestServeNegativeN(t *testing.T) {
	s := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": -5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := postSearch(t, s, string(body)); w.Code != 400 {
		t.Fatalf("negative n status %d: %s", w.Code, w.Body.String())
	}
	good, _ := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 4},
	})
	if w := postSearch(t, s, string(good)); w.Code != 200 {
		t.Fatalf("placement unusable after bad request: %d %s", w.Code, w.Body.String())
	}
}

// TestServeSolverWorkers: the solver_workers request field reaches the
// engine (negative values 400 cleanly, explicit counts share one cache
// entry), the per-search stats report the effective count, and /v1/stats
// exposes the server default and its machine resolution.
func TestServeSolverWorkers(t *testing.T) {
	s := newTestServer(t)
	post := func(workers int) searchResponse {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"placement": json.RawMessage(placementJSON(t)),
			"options":   map[string]any{"n": 4, "solver_workers": workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := postSearch(t, s, string(body))
		if w.Code != 200 {
			t.Fatalf("solver_workers=%d status %d: %s", workers, w.Code, w.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	neg, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 4, "solver_workers": -2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := postSearch(t, s, string(neg)); w.Code != 400 {
		t.Fatalf("negative solver_workers status %d: %s", w.Code, w.Body.String())
	}

	first := post(2)
	if first.CacheHit {
		t.Fatal("first explicit-workers search hit the cache")
	}
	if first.Stats.SolverWorkers != 2 {
		t.Fatalf("stats solver_workers = %d, want 2", first.Stats.SolverWorkers)
	}
	second := post(8)
	if !second.CacheHit {
		t.Fatal("explicit worker counts 2 and 8 did not share a cache entry")
	}
	if second.Makespan != first.Makespan {
		t.Fatalf("makespan changed across worker counts: %d vs %d", second.Makespan, first.Makespan)
	}

	req := httptest.NewRequest("GET", "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("/v1/stats status %d", w.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["solver_workers"]; !ok {
		t.Fatal("/v1/stats missing solver_workers")
	}
	if _, ok := stats["solver_workers_effective"]; !ok {
		t.Fatal("/v1/stats missing solver_workers_effective")
	}
}

// TestServeSolverWorkersDefaultSequential pins the serving contract of the
// per-solve worker setting on a multi-core process: the default
// -solver-workers 0 resolves to the single-threaded solver
// (solver_workers_effective 0, no shared-tier hits), an explicit
// "solver_workers": 2 still runs the root-split search and returns the
// same schedule bytes as "solver_workers": 1, and negative values are 400.
func TestServeSolverWorkersDefaultSequential(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	p, err := tessel.NewVShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	var placement bytes.Buffer
	if err := tessel.EncodePlacement(&placement, p); err != nil {
		t.Fatal(err)
	}
	post := func(s *server, options map[string]any) (int, searchResponse) {
		t.Helper()
		body, err := json.Marshal(map[string]any{"placement": json.RawMessage(placement.Bytes()), "options": options})
		if err != nil {
			t.Fatal(err)
		}
		w := postSearch(t, s, string(body))
		var resp searchResponse
		if w.Code == 200 {
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return w.Code, resp
	}

	s := newTestServer(t)
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st serveStatsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SolverWorkers != 0 || st.SolverWorkersEffective != 0 {
		t.Fatalf("/v1/stats solver_workers %d, effective %d; want 0 and 0 under the default flags",
			st.SolverWorkers, st.SolverWorkersEffective)
	}
	code, def := post(s, map[string]any{"n": 4})
	if code != 200 {
		t.Fatalf("default request status %d", code)
	}
	if def.Stats.SolverWorkers != 0 || def.Stats.SharedMemoHits != 0 || def.Stats.JobsStolen != 0 {
		t.Fatalf("default request ran the root split: %+v", def.Stats)
	}
	if code, _ := post(s, map[string]any{"n": 4, "solver_workers": -1}); code != 400 {
		t.Fatalf("negative solver_workers status %d, want 400", code)
	}

	// Fresh servers, so neither explicit answer is the other's cache hit.
	code, two := post(newTestServer(t), map[string]any{"n": 4, "solver_workers": 2})
	if code != 200 {
		t.Fatalf("solver_workers=2 status %d", code)
	}
	if two.Stats.SolverWorkers != 2 || two.Stats.SharedMemoHits == 0 {
		t.Fatalf("solver_workers=2 did not run the root split: %+v", two.Stats)
	}
	code, one := post(newTestServer(t), map[string]any{"n": 4, "solver_workers": 1})
	if code != 200 {
		t.Fatalf("solver_workers=1 status %d", code)
	}
	if !bytes.Equal(two.Schedule, one.Schedule) {
		t.Fatalf("solver_workers 2 and 1 returned different schedules:\n%s\n%s", two.Schedule, one.Schedule)
	}
}

// TestServeDisableLocalSearch: the disable_local_search option reaches the
// engine — a request differing only in that flag must run its own search
// (distinct cache key), not be served from the other flavor's cache entry.
func TestServeDisableLocalSearch(t *testing.T) {
	s := newTestServer(t)
	post := func(disable bool) searchResponse {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"placement": json.RawMessage(placementJSON(t)),
			"options":   map[string]any{"n": 6, "disable_local_search": disable},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := postSearch(t, s, string(body))
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post(false)
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	second := post(true)
	if second.CacheHit {
		t.Fatal("disable_local_search=true was served from the default-options cache entry")
	}
	if again := post(true); !again.CacheHit {
		t.Fatal("repeat disable_local_search=true request missed the cache")
	}
}

// TestServeMaxNCap: a micro-batch count above the server cap is rejected
// before any search or unroll work happens.
func TestServeMaxNCap(t *testing.T) {
	s := newTestServer(t)
	body, _ := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 2000000000},
	})
	w := postSearch(t, s, string(body))
	if w.Code != 400 {
		t.Fatalf("oversized n status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "exceeds the server cap") {
		t.Fatalf("error does not name the cap: %s", w.Body.String())
	}
}

// chainJSON builds a minimal 2-device 1F1B chain placement whose forward
// time f gives every value a distinct fingerprint — the cheap way to mint
// distinct cold requests for admission tests.
func chainJSON(f int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"name":"chain-%d","num_devices":2,"stages":[`+
		`{"name":"f0","time":%d,"mem":1,"devices":[0]},`+
		`{"name":"f1","time":1,"mem":1,"devices":[1]},`+
		`{"name":"b1","kind":"backward","time":2,"mem":-1,"devices":[1]},`+
		`{"name":"b0","kind":"backward","time":2,"mem":-1,"devices":[0]}],`+
		`"deps":[[1],[2],[3],[]]}`, f, f))
}

// TestServeReadyz: /readyz gates on the snapshot restore while /healthz
// only reports liveness — a booting replica is alive but not ready. The
// JSON body names the reason and the peer-ring view, and the peer health
// endpoint mirrors the same readiness for remote probers.
func TestServeReadyz(t *testing.T) {
	s := newTestServer(t)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.mux().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	ready := func(w *httptest.ResponseRecorder) readyzJSON {
		t.Helper()
		var body readyzJSON
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("/readyz body %q: %v", w.Body.String(), err)
		}
		return body
	}
	if w := get("/healthz"); w.Code != 200 {
		t.Fatalf("/healthz during boot: %d", w.Code)
	}
	w := get("/readyz")
	if body := ready(w); w.Code != 503 || body.Ready || body.Reason != "restoring" {
		t.Fatalf("/readyz during boot: %d %+v", w.Code, body)
	}
	// The peer health endpoint reports the same gate to remote probers.
	if w := get("/v1/peer/health"); w.Code != 503 {
		t.Fatalf("/v1/peer/health during boot: %d", w.Code)
	}
	s.ready.Store(true)
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || !body.Ready || body.Reason != "ok" || body.PeersConfigured != 0 {
		t.Fatalf("/readyz after restore: %d %+v", w.Code, body)
	}
	if w := get("/v1/peer/health"); w.Code != 200 {
		t.Fatalf("/v1/peer/health after restore: %d", w.Code)
	}

	// With a peer ring installed, /readyz reports the local health view —
	// and an ejected peer flips the reason to degraded-ring while the
	// replica itself stays ready (it can always answer alone).
	client, err := tessel.NewPeerClient(s.engine, tessel.PeerClientOptions{
		Self: "a:1", Peers: []string{"a:1", "b:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.peerClient = client
	s.engine.SetPeerTier(client)
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || body.Reason != "ok" || body.PeersConfigured != 1 || body.PeersHealthy != 1 {
		t.Fatalf("/readyz with healthy ring: %d %+v", w.Code, body)
	}
	client.Ring().Eject("b:2")
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || !body.Ready || body.Reason != "degraded-ring" || body.PeersHealthy != 0 {
		t.Fatalf("/readyz with ejected peer: %d %+v", w.Code, body)
	}
}

// TestServeSnapshotWriteRetry: a disk that fails twice and then recovers
// must cost two counted snapshot_write_errors and still produce the
// snapshot; a disk that never recovers exhausts the bounded retries and
// surfaces the error.
func TestServeSnapshotWriteRetry(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s := newTestServer(t)
	s.snapshotPath = filepath.Join(t.TempDir(), "cache.snap")
	s.ready.Store(true)

	var calls atomic.Int32
	faultpoint.Arm(faultpoint.EngineSnapshotWrite, func() error {
		if calls.Add(1) <= 2 {
			return errors.New("injected disk failure")
		}
		return nil
	})
	if err := s.writeSnapshot(); err != nil {
		t.Fatalf("writeSnapshot with recovering disk: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("snapshot writer ran %d times, want 3 (two failures + one success)", got)
	}
	if st := s.engine.Stats(); st.SnapshotWriteErrors != 2 {
		t.Fatalf("snapshot write errors = %d, want 2", st.SnapshotWriteErrors)
	}

	// The counter reaches /v1/stats under its counterparity tag.
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got, ok := stats["snapshot_write_errors"].(float64); !ok || got != 2 {
		t.Fatalf("/v1/stats snapshot_write_errors = %v, want 2", stats["snapshot_write_errors"])
	}
	for _, field := range []string{"peer_hits", "peer_misses", "peer_errors", "peer_retries", "breaker_open", "peers_healthy"} {
		if _, ok := stats[field]; !ok {
			t.Fatalf("/v1/stats is missing the %s field", field)
		}
	}

	// Permanent failure: all attempts burn, the error comes back, and every
	// attempt is counted.
	faultpoint.Arm(faultpoint.EngineSnapshotWrite, func() error {
		return errors.New("injected permanent disk failure")
	})
	if err := s.writeSnapshot(); err == nil {
		t.Fatal("writeSnapshot succeeded against a permanently failing disk")
	}
	if st := s.engine.Stats(); st.SnapshotWriteErrors != 2+snapshotWriteAttempts {
		t.Fatalf("snapshot write errors = %d, want %d", st.SnapshotWriteErrors, 2+snapshotWriteAttempts)
	}
}

// TestServeOverloadAndDegraded exhausts a tenant's admission budget: the
// first cold search is admitted, the second is shed with 429 and a
// Retry-After header, and a third that set allow_degraded gets a 200
// flagged "degraded" instead of the refusal.
func TestServeOverloadAndDegraded(t *testing.T) {
	s := &server{
		// Burst 1 and a near-zero refill rate: one cold search per tenant,
		// deterministically.
		engine:        tessel.NewEngine(tessel.EngineOptions{TenantRate: 1e-9, TenantBurst: 1}),
		searchTimeout: 30 * time.Second,
		solverTimeout: 5 * time.Second,
		maxN:          DefaultMaxN,
	}
	post := func(placement json.RawMessage, degraded bool) *httptest.ResponseRecorder {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"placement": placement,
			"options":   map[string]any{"n": 6, "allow_degraded": degraded},
			"tenant":    "acme",
		})
		if err != nil {
			t.Fatal(err)
		}
		return postSearch(t, s, string(body))
	}

	if w := post(chainJSON(1), false); w.Code != 200 {
		t.Fatalf("first cold search: %d %s", w.Code, w.Body.String())
	}

	w := post(chainJSON(2), false)
	if w.Code != 429 {
		t.Fatalf("over-budget search: %d %s", w.Code, w.Body.String())
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q not a positive second count: %v", w.Header().Get("Retry-After"), err)
	}

	w = post(chainJSON(3), true)
	if w.Code != 200 {
		t.Fatalf("degraded search: %d %s", w.Code, w.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("over-budget allow_degraded response not flagged degraded")
	}
	if resp.Makespan <= 0 {
		t.Fatalf("degraded response unusable: %+v", resp)
	}

	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st struct {
		Admitted uint64 `json:"admitted"`
		Shed     uint64 `json:"shed"`
		Degraded uint64 `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Shed != 1 || st.Degraded != 1 {
		t.Fatalf("stats admitted=%d shed=%d degraded=%d, want 1/1/1", st.Admitted, st.Shed, st.Degraded)
	}
}

// TestRetryAfterSecondsClamped: the Retry-After header mapper must emit a
// positive whole-second count for every overload hint shape — most acutely
// the expired-deadline shed, whose raw "time remaining" is negative.
// Admission control clamps its hints at 1s, but the serve layer re-floors
// rather than trusting that invariant across the package boundary.
func TestRetryAfterSecondsClamped(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-90 * time.Second, 1}, // deadline elapsed before admission
		{0, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2}, // rounds up, never down to 1½→1
	}
	for _, tc := range cases {
		err := error(&tessel.OverloadError{Reason: "deadline elapsed before admission", RetryAfter: tc.d})
		if got := retryAfterSeconds(err); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if got := retryAfterSeconds(errors.New("not an overload")); got != 1 {
		t.Errorf("non-overload fallback = %d, want 1", got)
	}
}

// TestServeSnapshotRestartToWarm drives the restart story end to end at the
// HTTP layer: a search served by one server, snapshotted, restored into a
// second server, is a cache hit there with the identical fingerprint and
// makespan, and /v1/stats reports the restore.
func TestServeSnapshotRestartToWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	body, err := json.Marshal(map[string]any{
		"placement": chainJSON(7),
		"options":   map[string]any{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t)
	w := postSearch(t, s1, string(body))
	if w.Code != 200 {
		t.Fatalf("cold search: %d %s", w.Code, w.Body.String())
	}
	var cold searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if err := s1.engine.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	s2.snapshotPath = path
	if n := s2.engine.LoadSnapshot(path); n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	s2.ready.Store(true)
	w = postSearch(t, s2, string(body))
	if w.Code != 200 {
		t.Fatalf("post-restart search: %d %s", w.Code, w.Body.String())
	}
	var warm searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("post-restart search missed the restored cache")
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Makespan != cold.Makespan {
		t.Fatalf("restored result drifted: %+v vs %+v", warm, cold)
	}

	rec := httptest.NewRecorder()
	s2.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st struct {
		Restored uint64 `json:"restored"`
		Misses   uint64 `json:"misses"`
		Ready    bool   `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.Misses != 0 || !st.Ready {
		t.Fatalf("stats after restart: %+v", st)
	}
}
