// Command perfbench drives a real `tessel serve` process over loopback HTTP
// with a fixed, seeded request sequence per workload, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced replay) as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics; run it
// through run.sh, which builds the server from the same checkout.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name    string
	cache   int // cache size of the server that takes the load
	maxConc int // its -max-concurrent-searches
	hot     func() []config
	build   func(seed uint64, seconds int, w *warmState) *plan
	specs   func(snapshot string, w *workload) []serverSpec
}

// Sequence lengths per second of --seconds, measured on a 2-core Xeon so a
// run's timed phase lasts about --seconds there. They fix the sequence; the
// sequence never depends on how fast the server answers. At the default 18
// seconds they also put each workload's tail percentile inside one request
// class: p95 over the 260 requests of cold's kept rounds lands inside its
// exact solves, and p99 over each 1000-request segment of the other
// workloads lands inside mixed's slowest cold searches and inside warm's
// and fleet's largest answers.
const (
	// segmentRequests is the size of a replay segment of the two-client
	// workloads: enough for a p99 with ten samples beyond it.
	segmentRequests     = 1000
	coldRoundsPerSecond = 0.55
	warmPerSecond       = 700
	mixedBlocksPerSec   = 18
	fleetPerSecond      = 650
)

// single is the deployment of one server taking the load.
func single(snapshot string, w *workload) []serverSpec {
	return []serverSpec{{name: w.name, args: func(string, []string) []string {
		args := []string{"-cache-size", strconv.Itoa(w.cache), "-max-concurrent-searches", strconv.Itoa(w.maxConc)}
		if snapshot != "" {
			args = append(args, "-snapshot", snapshot)
		}
		return args
	}}}
}

var workloads = []*workload{
	{
		// The server restores the working set although no cold request
		// uses it: like any restarted replica, and so that setup_s times
		// a restore rather than only a process spawn.
		name: "cold", cache: 128, maxConc: 2, hot: workingSet,
		build: func(seed uint64, seconds int, _ *warmState) *plan {
			p := coldPlan(seed, max(1, int(float64(seconds)*coldRoundsPerSecond+0.5)))
			p.Segments = len(p.Streams[0]) / len(coldGrid())
			return p
		},
		specs: single,
	},
	{
		name: "warm", cache: 128, maxConc: 2, hot: workingSet,
		build: func(seed uint64, seconds int, w *warmState) *plan {
			p := zipfPlan("warm", seed, w.keys, w.nr, w.stages, seconds*warmPerSecond, 2)
			p.Segments = max(1, p.requests()/segmentRequests)
			return p
		},
		specs: single,
	},
	{
		name: "mixed", cache: len(mixedHot()) + 4, maxConc: 1, hot: hotLast,
		build: func(seed uint64, seconds int, w *warmState) *plan {
			h := len(w.keys) - len(mixedHot())
			p := mixedPlan(seed, w.keys[h:], w.nr[h:], max(8, seconds*mixedBlocksPerSec))
			p.Segments = max(1, p.requests()/segmentRequests)
			return p
		},
		specs: single,
	},
	{
		// Replica A holds the working set; replica B, with a 4-entry cache,
		// takes all the load and must answer from A.
		name: "fleet", cache: 4, maxConc: 2, hot: workingSet,
		build: func(seed uint64, seconds int, w *warmState) *plan {
			p := zipfPlan("fleet", seed, w.keys, w.nr, w.stages, seconds*fleetPerSecond, 2)
			p.Segments = max(1, p.requests()/segmentRequests)
			return p
		},
		specs: func(snapshot string, w *workload) []serverSpec {
			peerArgs := func(self string, all []string) []string {
				return []string{"-peers", strings.Join(all, ","), "-peer-self", self, "-peer-timeout", peerTimeout.String()}
			}
			return []serverSpec{
				{name: "fleet-a", args: func(self string, all []string) []string {
					return append([]string{"-cache-size", "128", "-snapshot", snapshot}, peerArgs(self, all)...)
				}},
				{name: "fleet-b", args: func(self string, all []string) []string {
					return append([]string{"-cache-size", strconv.Itoa(w.cache)}, peerArgs(self, all)...)
				}},
			}
		},
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed HTTP replay of the plan.
type phase struct {
	out       [][]outcome
	wall      time.Duration   // whole replay
	walls     []time.Duration // per segment
	segCPU    []time.Duration // server CPU per segment
	segSteal  []float64       // share of the host's CPU time the hypervisor took, per segment
	setups    []time.Duration
	rss       int64
	stats     []serveStats // per process, after the replay
	cp        *capture
	clientCPU time.Duration
	spans     []span
}

func (ph *phase) target() serveStats { return ph.stats[len(ph.stats)-1] }

func (ph *phase) counts() (attempted, ok int) {
	for _, o := range ph.out {
		for _, r := range o {
			attempted++
			if r.Status == 200 {
				ok++
			}
		}
	}
	return
}

// live tracks the running server processes so the watchdog can stop them.
var live struct {
	sync.Mutex
	deployments map[*deployment]bool
}

func track(f *deployment, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.deployments == nil {
		live.deployments = map[*deployment]bool{}
	}
	if on {
		live.deployments[f] = true
	} else {
		delete(live.deployments, f)
	}
}

// httpPhase launches the workload's servers `setups` times (the last launch
// serves the replay), replays the plan against the target and measures it.
func httpPhase(ctx context.Context, bin, dir string, w *workload, p *plan, bodies [][][]byte, snapshot string, setups int, traced bool) (*phase, error) {
	ph := &phase{cp: newCapture()}
	var f *deployment
	for i := 0; i < setups; i++ {
		nf, d, err := launch(bin, dir, w.specs(snapshot, w))
		if err != nil {
			return nil, err
		}
		track(nf, true)
		ph.setups = append(ph.setups, d)
		if i < setups-1 {
			nf.stop()
			track(nf, false)
			continue
		}
		f = nf
	}
	defer func() { f.stop(); track(f, false) }()

	send := httpSender(f.target.addr, bodies)
	var recs []*recorder
	if traced {
		epoch := time.Now()
		for range p.Streams {
			recs = append(recs, &recorder{epoch: epoch})
		}
		inner := send
		send = func(c, i int) (int, []byte, error) {
			s := recs[c].begin("serve.rtt", -1, c<<24|i)
			status, body, err := inner(c, i)
			recs[c].end(s)
			return status, body, err
		}
	}
	check := func(c, i, status int, body []byte) {
		rq := p.Streams[c][i]
		ph.cp.add(question{rq.Key, rq.Name, rq.N}, status, body)
	}
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	last, cpuErr := cpu0, error(nil)
	lastSteal, lastTotal := hostSteal()
	ph.out, ph.walls = replay(p, p.Segments, send, check, func(int) {
		now, err := f.cpuTime()
		if err != nil {
			cpuErr = err
		}
		ph.segCPU = append(ph.segCPU, now-last)
		last = now
		steal, total := hostSteal()
		ph.segSteal = append(ph.segSteal, ratio(float64(steal-lastSteal), float64(total-lastTotal)))
		lastSteal, lastTotal = steal, total
	})
	ph.clientCPU = selfCPU() - self0
	if cpuErr != nil {
		return nil, cpuErr
	}
	for _, w := range ph.walls {
		ph.wall += w
	}
	if ph.rss, err = f.peakRSS(); err != nil {
		return nil, err
	}
	for _, s := range f.procs {
		st, err := s.stats()
		if err != nil {
			return nil, err
		}
		ph.stats = append(ph.stats, st)
	}
	if traced {
		ph.spans = mergeSpans(recs)
	}
	return ph, nil
}

func segWalls(ph *phase) []float64 {
	out := make([]float64, len(ph.walls))
	for i, w := range ph.walls {
		out[i] = w.Seconds()
	}
	return out
}

// hostSteal reads the steal and total columns of /proc/stat's cpu line:
// the time the hypervisor ran something else while this machine wanted
// the CPU, and all CPU time, in clock ticks (0, 0 when unreadable).
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gate checks the workload's serving counters against what its sequence
// fixes.
func gate(w *workload, p *plan, ph *phase, v *verdict) {
	t := ph.target()
	n := uint64(p.requests())
	for i, st := range ph.stats {
		if st.Shed != 0 || st.Degraded != 0 {
			v.fail("server %d shed %d and degraded %d requests", i, st.Shed, st.Degraded)
		}
	}
	switch w.name {
	case "cold":
		if t.Misses != n || t.Admitted != n {
			v.fail("cold: %d misses and %d searches for %d requests", t.Misses, t.Admitted, n)
		}
	case "warm":
		if t.Misses != 0 || t.Admitted != 0 {
			v.fail("warm: %d misses and %d cold searches, want none", t.Misses, t.Admitted)
		}
	case "mixed":
		want := uint64(0)
		for _, s := range p.Streams {
			for _, rq := range s {
				if rq.Key >= len(mixedHot()) {
					want++
				}
			}
		}
		if t.Misses+t.Shared != want {
			v.fail("mixed: misses %d + shared %d, the sequence fixes %d", t.Misses, t.Shared, want)
		}
	case "fleet":
		a := ph.stats[0]
		if t.Admitted != 0 || a.Admitted != 0 {
			v.fail("fleet: replica B ran %d cold searches, A %d; want none", t.Admitted, a.Admitted)
		}
		if t.PeerErrors != 0 || t.PeerRetries != 0 || t.PeerMisses != 0 {
			v.fail("fleet: peer errors %d, retries %d, misses %d on replica B", t.PeerErrors, t.PeerRetries, t.PeerMisses)
		}
	}
}

// cleanest returns the indexes of the half of the segments (rounded up)
// during which the hypervisor took the least CPU time, in segment order.
// Ties go to every other segment first, so a run without steal keeps
// segments from all of it rather than its first half.
// On a shared virtual machine, steal in a segment slows everything in it:
// at 12–25% steal a one-second segment of the warm workload took 1.3–2x as
// long as at 0–3%. Contention only ever slows the server, so the cleanest
// segments are the ones that measure it rather than its neighbours.
func cleanest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if steal[idx[a]] != steal[idx[b]] {
			return steal[idx[a]] < steal[idx[b]]
		}
		return idx[a]%2 < idx[b]%2
	})
	idx = idx[:(len(idx)+1)/2]
	slices.Sort(idx)
	return idx
}

// segment returns the outcomes of segment k of every stream.
func (ph *phase) segment(k int) []outcome {
	var out []outcome
	for _, o := range ph.out {
		out = append(out, o[k*len(o)/len(ph.walls):(k+1)*len(o)/len(ph.walls)]...)
	}
	return out
}

// latencyBasis reports whether latency percentiles are taken over all kept
// segments together (pooled) rather than per segment, and the sample count
// each percentile is taken over. A percentile per segment needs
// segmentRequests samples; cold's segments (one grid round, 44 requests)
// do not have them.
func latencyBasis(ph *phase, kept []int) (pooled bool, samples int) {
	attempted, _ := ph.counts()
	if per := attempted / len(ph.walls); per >= segmentRequests {
		return false, per
	}
	return true, attempted / len(ph.walls) * len(kept)
}

func endToEnd(ph *phase, v *verdict) map[string]metric {
	// Rates and latencies are medians over the kept segments (see
	// cleanest), so neither a burst of host noise nor a slow stretch of a
	// run moves them much.
	kept := cleanest(ph.segSteal)
	pooled, _ := latencyBasis(ph, kept)
	var rates, cpus, p50s, tails []float64
	var all []time.Duration
	allFailed := 0
	for _, k := range kept {
		var lats []time.Duration
		failed := 0
		for _, r := range ph.segment(k) {
			if r.Status == 200 {
				lats = append(lats, r.Lat)
			} else {
				failed++
			}
		}
		rates = append(rates, ratio(float64(len(lats)), ph.walls[k].Seconds()))
		cpus = append(cpus, ratio(ms(ph.segCPU[k]), float64(len(lats))))
		all, allFailed = append(all, lats...), allFailed+failed
		p50, tail, _, _ := latencySummary(lats, failed, ph.wall)
		p50s, tails = append(p50s, ms(p50)), append(tails, ms(tail))
	}
	if pooled {
		p50, tail, _, _ := latencySummary(all, allFailed, ph.wall)
		p50s, tails = []float64{ms(p50)}, []float64{ms(tail)}
	}
	setups := make([]float64, len(ph.setups))
	for i, d := range ph.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"rps":            {median(rates), "1/s"},
		"p50_ms":         {median(p50s), "ms"},
		"tail_ms":        {median(tails), "ms"},
		"cpu_ms_per_req": {median(cpus), "ms"},
		"rss_mb":         {float64(ph.rss) / (1 << 20), "MB"},
		"period_ratio":   {v.periodRatio, "ratio"},
		"makespan_ratio": {v.makespanRatio, "ratio"},
	}
}

// provenance describes the machine, the code and the sample behind a result.
func provenance(w *workload, seed uint64, seconds, trace int, p *plan, ph *phase, v *verdict) map[string]any {
	cpuModel := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(val)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kept := cleanest(ph.segSteal)
	pooled, samples := latencyBasis(ph, kept)
	keptSteal := make([]float64, len(kept))
	for i, k := range kept {
		keptSteal[i] = ph.segSteal[k]
	}
	return map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"cpu_model": cpuModel, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": commit, "source_sha256": sourceDigest(),
		"requests": p.requests(), "segments": len(ph.walls), "latency_per_segment": !pooled,
		"latency_samples": samples, "tail_percentile": float64(tailPercentile(samples)) / 100,
		"clients": len(p.Streams), "distinct_answers": v.distinct,
		"client_cpu_share": ratio(ph.clientCPU.Seconds(), ph.wall.Seconds()),
		"timed_wall_s":     ph.wall.Seconds(), "server_stats": ph.stats,
		"segment_steal": ph.segSteal, "segment_wall_s": segWalls(ph), "segments_kept": kept, "kept_steal": keptSteal,
	}
}

// sourceDigest hashes the Go sources and module files of the checkout, the
// code identity when the checkout is not a git repository.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold, warm, mixed or fleet")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 18, "nominal length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		bin     = flag.String("server", "", "path of the tessel binary to serve with")
		work    = flag.String("work", ".bench_build", "directory for snapshots, logs and traces")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server <tessel binary> -workload cold|warm|mixed|fleet [-seed n] [-seconds s] [-trace 0|1]")
		os.Exit(2)
	}
	// The whole run must end within 180 s; stop the servers and fail well
	// before that if anything hangs.
	time.AfterFunc(170*time.Second, func() {
		live.Lock()
		for f := range live.deployments {
			f.stop()
		}
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run exceeded 170 s")
		os.Exit(3)
	})
	res, err := run(context.Background(), w, *bin, *work, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, w *workload, bin, work string, seed uint64, seconds, trace int) (*result, error) {
	dir := filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", w.name, seed, trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var warm *warmState
	snapshot := ""
	if w.hot != nil {
		snapshot = filepath.Join(dir, "cache.snap")
		var err error
		if warm, err = prepareWarm(ctx, w.hot(), snapshot); err != nil {
			return nil, err
		}
	}
	p := w.build(seed, seconds, warm)
	bodies, err := p.bodies()
	if err != nil {
		return nil, err
	}

	var ph, untraced *phase
	var in *inprocRun
	if trace == 0 {
		if ph, err = httpPhase(ctx, bin, dir, w, p, bodies, snapshot, 9, false); err != nil {
			return nil, err
		}
	} else {
		if untraced, err = httpPhase(ctx, bin, dir, w, p, bodies, snapshot, 1, false); err != nil {
			return nil, err
		}
		if ph, err = httpPhase(ctx, bin, dir, w, p, bodies, snapshot, 1, true); err != nil {
			return nil, err
		}
		if in, err = traceInproc(ctx, w, p, warm, bodies); err != nil {
			return nil, err
		}
	}

	refs, err := references(ctx, p, warm)
	if err != nil {
		return nil, err
	}
	v := verify(p, ph.cp, refs)
	gate(w, p, ph, v)
	if untraced != nil {
		uv := verify(p, untraced.cp, refs)
		gate(w, p, untraced, uv)
		v.problems = append(v.problems, uv.problems...)
	}
	for _, pr := range v.problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", pr)
	}

	attempted, ok := ph.counts()
	res := &result{Correct: len(v.problems) == 0, Attempted: attempted, Failed: attempted - ok}
	if trace == 0 {
		res.Metrics = endToEnd(ph, v)
	} else {
		res.Metrics = perLayer(warm, untraced, ph, in, v)
		if err := writeSpans(filepath.Join(dir, "spans.json"), ph.spans, in.spans); err != nil {
			return nil, err
		}
	}
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(w, seed, seconds, trace, p, ph, v)})
	fmt.Println(string(prov))
	return res, nil
}

// writeSpans writes the recorded spans, with their self times, at the end
// of the run.
func writeSpans(path string, sets ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, spans := range sets {
		self := selfTimes(spans)
		for i, s := range spans {
			if err := enc.Encode(struct {
				span
				Self int64 `json:"self_ns"`
			}{s, self[i]}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
