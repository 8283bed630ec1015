package main

// In-process work: preparing the warm-state snapshots, computing the
// reference answers the server's outputs are checked against, and the
// traced replay that times each layer through its public functions.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tessel/internal/core"
	"tessel/internal/engine"
	"tessel/internal/peer"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

// Serving settings the benchmark relies on; the in-process engines mirror
// the `tessel serve` defaults so both answer the same questions the same way.
const (
	solverTimeout = 10 * time.Second // tessel serve -solver-timeout default
	maxQueued     = 64               // -max-queued-searches default
	queueWait     = 5 * time.Second  // -queue-wait default
	peerTimeout   = 2 * time.Second  // -peer-timeout the fleet replicas get
)

func searchOpts(c config, n int) core.Options {
	return core.Options{N: n, Memory: c.Memory, SolverNodes: c.Nodes, SolverTimeout: solverTimeout}
}

func quiet(string, ...any) {}

// warmState is a prepared cache: the keys it holds, the engine that
// searched them (the reference for every hot answer), and the snapshot file
// the server restores.
type warmState struct {
	keys     []config
	nr       []int // repetend size N_R per key
	stages   []int // stage count K per key
	cached   []*core.Result
	eng      *engine.Engine
	snapshot string
	bytes    int64
}

// prepareWarm searches every key in-process and writes the engine's
// snapshot to path.
func prepareWarm(ctx context.Context, keys []config, path string) (*warmState, error) {
	w := &warmState{keys: keys, snapshot: path}
	w.eng = engine.New(engine.Options{CacheSize: len(keys), Logf: quiet})
	for _, c := range keys {
		p, err := c.placement(c.name())
		if err != nil {
			return nil, err
		}
		res, _, err := w.eng.Serve(ctx, engine.Request{Placement: p, Options: searchOpts(c, 0)})
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", c, err)
		}
		if res.Stats.Truncated {
			return nil, fmt.Errorf("prepare %s: search truncated", c)
		}
		w.nr = append(w.nr, res.Repetend.NR)
		w.stages = append(w.stages, p.K())
		w.cached = append(w.cached, res)
	}
	if err := w.eng.SaveSnapshot(path); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.bytes = st.Size()
	return w, nil
}

// reference is the expected answer to one question.
type reference struct {
	Period, Makespan, LowerBound int
	Fingerprint                  string
}

// references computes the expected answer for every distinct (key, N) the
// plan asks, under the key's base placement name: from the warm engine for
// keys it holds, from a fresh search otherwise.
func references(ctx context.Context, p *plan, warm *warmState) (map[pair]reference, error) {
	warmKey := map[config]bool{}
	if warm != nil {
		for _, c := range warm.keys {
			warmKey[c] = true
		}
	}
	out := map[pair]reference{}
	for _, s := range p.Streams {
		for _, rq := range s {
			pr := pair{rq.Key, rq.N}
			if _, done := out[pr]; done {
				continue
			}
			c := p.Keys[rq.Key]
			pl, err := c.placement(c.name())
			if err != nil {
				return nil, err
			}
			var res *core.Result
			if warmKey[c] {
				res, _, err = warm.eng.Serve(ctx, engine.Request{Placement: pl, Options: searchOpts(c, rq.N)})
			} else {
				res, err = core.Search(ctx, pl, searchOpts(c, rq.N))
			}
			if err != nil {
				return nil, fmt.Errorf("reference %s n=%d: %w", c, rq.N, err)
			}
			out[pr] = reference{
				Period: res.Repetend.Period, Makespan: res.Makespan, LowerBound: res.LowerBound,
				Fingerprint: sched.FingerprintSchedule(res.Full),
			}
		}
	}
	return out, nil
}

// inprocRecord is what the traced in-process replay saw for one request.
type inprocRecord struct {
	Hit, Shared, PeerHit, Exact bool
	Layers                      time.Duration // decode + fingerprint + serve + encode
	Serve                       time.Duration
	Stats                       core.Stats
	EntryBytes                  int // size of the peer entry, when served by a peer
}

// inprocRun is the traced in-process replay of a plan.
type inprocRun struct {
	spans   []span
	records [][]inprocRecord
	restore time.Duration
	wall    time.Duration
	direct  solver.Result // summed counters of the direct solves
}

// layerDeploy is the in-process stand-in of a workload's servers.
type layerDeploy struct {
	target *engine.Engine
	owner  *engine.Engine // fleet replica A (nil elsewhere)
	fetch  *peer.Client   // a peer client on a scratch engine, for Fetch spans
	insert *engine.Engine // scratch engine for InsertPeerEntry spans
	keyOf  map[string]string
}

// engineOpts mirrors the server flags of a workload.
func engineOpts(cache, maxConc int) engine.Options {
	return engine.Options{
		CacheSize: cache, MaxConcurrentSearches: maxConc, MaxQueuedSearches: maxQueued,
		QueueWait: queueWait, PeerFetchBudget: 2 * time.Second, Logf: quiet,
	}
}

// traceInproc replays p through the layers' public functions, recording a
// span around each call.
func traceInproc(ctx context.Context, w *workload, p *plan, warm *warmState, bodies [][][]byte) (*inprocRun, error) {
	run := &inprocRun{}
	epoch := time.Now()
	recs := make([]*recorder, len(p.Streams))
	for c := range recs {
		recs[c] = &recorder{epoch: epoch}
	}
	d := &layerDeploy{}
	restore := func(e *engine.Engine) error {
		f, err := os.Open(warm.snapshot)
		if err != nil {
			return err
		}
		defer f.Close()
		i := recs[0].begin("engine.restore", -1, -1)
		_, err = e.RestoreFrom(f)
		run.restore += recs[0].end(i)
		return err
	}
	switch w.name {
	case "fleet":
		d.owner = engine.New(engineOpts(128, 2))
		if err := restore(d.owner); err != nil {
			return nil, err
		}
		keys, err := snapshotKeys(warm.snapshot)
		if err != nil {
			return nil, err
		}
		d.keyOf = keys
		addr, stop, err := servePeer(d.owner)
		if err != nil {
			return nil, err
		}
		self := "127.0.0.1:1" // never dialled: a client skips itself
		peers := []string{addr, self}
		d.target = engine.New(engineOpts(w.cache, 2))
		cl, err := peer.NewClient(d.target, peer.ClientOptions{Self: self, Peers: peers, AttemptTimeout: peerTimeout})
		if err != nil {
			return nil, err
		}
		d.target.SetPeerTier(cl)
		d.insert = engine.New(engineOpts(1, 2))
		if d.fetch, err = peer.NewClient(engine.New(engineOpts(1, 2)), peer.ClientOptions{Self: self, Peers: peers, AttemptTimeout: peerTimeout}); err != nil {
			return nil, err
		}
		defer stop()
	default:
		d.target = engine.New(engineOpts(w.cache, w.maxConc))
		if warm != nil {
			if err := restore(d.target); err != nil {
				return nil, err
			}
		}
	}

	type parsed struct {
		placement []byte
		opts      core.Options
	}
	in := make([][]parsed, len(p.Streams))
	for c, s := range p.Streams {
		in[c] = make([]parsed, len(s))
		for i, rq := range s {
			var wr wireRequest
			if err := json.Unmarshal(bodies[c][i], &wr); err != nil {
				return nil, err
			}
			in[c][i] = parsed{placement: wr.Placement, opts: searchOpts(p.Keys[rq.Key], rq.N)}
		}
	}
	warmIdx := map[config]int{}
	if warm != nil {
		for i, c := range warm.keys {
			warmIdx[c] = i
		}
	}
	run.records = make([][]inprocRecord, len(p.Streams))
	for c := range run.records {
		run.records[c] = make([]inprocRecord, len(p.Streams[c]))
	}
	var (
		errOnce  sync.Once
		firstErr error
		directMu sync.Mutex
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	send := func(c, i int) (int, []byte, error) {
		r := recs[c]
		rq := p.Streams[c][i]
		id := c<<24 | i
		rec := &run.records[c][i]
		root := r.begin("request", -1, id)
		s := r.begin("sched.decode", root, id)
		pl, err := sched.DecodePlacement(bytes.NewReader(in[c][i].placement))
		rec.Layers += r.end(s)
		if err != nil {
			fail(err)
			return 0, nil, err
		}
		s = r.begin("sched.fingerprint", root, id)
		fp := sched.Fingerprint(pl)
		rec.Layers += r.end(s)
		s = r.begin("engine.serve", root, id)
		res, info, err := d.target.Serve(ctx, engine.Request{Placement: pl, Options: in[c][i].opts})
		rec.Serve = r.end(s)
		rec.Layers += rec.Serve
		if err != nil {
			fail(fmt.Errorf("in-process %s n=%d: %w", rq.Name, rq.N, err))
			return 0, nil, err
		}
		var buf bytes.Buffer
		s = r.begin("sched.encode", root, id)
		err = sched.EncodeSchedule(&buf, res.Full)
		rec.Layers += r.end(s)
		if err != nil {
			fail(err)
			return 0, nil, err
		}
		rec.Hit, rec.Shared, rec.PeerHit, rec.Stats = info.Hit, info.Shared, info.PeerHit, res.Stats
		cfg := p.Keys[rq.Key]
		wi, warmKey := warmIdx[cfg]
		rec.Exact = warmKey && rq.N == 3*warm.nr[wi]
		switch {
		case info.Hit && warmKey && !rec.Exact:
			s = r.begin("core.extend", root, id)
			_, err = core.Extend(ctx, warm.cached[wi], rq.N, in[c][i].opts)
			r.end(s)
		case !info.Hit && !info.Shared && !info.PeerHit && res.Repetend != nil && rq.N > 0 && rq.N < res.Repetend.NR:
			s = r.begin("core.direct", root, id)
			var sr solver.Result
			_, sr, err = core.TimeOptimal(ctx, pl, rq.N, in[c][i].opts)
			r.end(s)
			directMu.Lock()
			run.direct.Nodes += sr.Nodes
			run.direct.SharedMemoHits += sr.SharedMemoHits
			run.direct.JobsStolen += sr.JobsStolen
			directMu.Unlock()
		case info.PeerHit:
			key := d.keyOf[fp+"|"+strconv.Itoa(normMem(cfg.Memory))]
			s = r.begin("peer.encode", root, id)
			data, found, eerr := d.owner.EncodePeerEntry(key)
			r.end(s)
			if eerr != nil || !found {
				err = fmt.Errorf("peer entry %q: found=%v %v", key, found, eerr)
				break
			}
			s = r.begin("peer.insert", root, id)
			_, err = d.insert.InsertPeerEntry(key, bytes.NewReader(data))
			r.end(s)
			if err != nil {
				break
			}
			s = r.begin("peer.fetch", root, id)
			var got *core.Result
			got, err = d.fetch.Fetch(ctx, fp, key)
			r.end(s)
			if err == nil && got == nil {
				err = fmt.Errorf("peer fetch of %q missed", key)
			}
			rec.EntryBytes = len(data)
		}
		r.end(root)
		if err != nil {
			fail(err)
			return 0, nil, err
		}
		return http.StatusOK, nil, nil
	}
	_, walls := replay(p, 1, send, func(int, int, int, []byte) {}, func(int) {})
	run.wall = walls[0]
	if firstErr != nil {
		return nil, firstErr
	}
	run.spans = mergeSpans(recs)
	return run, nil
}

func normMem(m int) int {
	if m == 0 {
		return sched.Unbounded
	}
	return m
}

// servePeer serves an engine's peer endpoints on a loopback port.
func servePeer(e *engine.Engine) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	peer.NewServer(e, nil).Register(mux)
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(done)
	}()
	return l.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// snapshotKeys reads the cache keys out of a snapshot file, indexed by
// "<fingerprint>|<memory>", the two parts of a key that vary across the
// benchmark's requests.
func snapshotKeys(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, err := br.ReadString('\n'); err != nil {
		return nil, err
	}
	var body struct {
		Entries []struct {
			Key string `json:"key"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(br).Decode(&body); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	out := map[string]string{}
	for _, e := range body.Entries {
		fp, rest, _ := strings.Cut(e.Key, "|")
		mem, _, _ := strings.Cut(strings.TrimPrefix(rest, "mem="), "|")
		out[fp+"|"+mem] = e.Key
	}
	return out, nil
}
