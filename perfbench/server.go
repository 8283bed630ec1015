package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `tessel serve` child process.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	log  *os.File
}

// freeAddr reserves a loopback port and releases it for the child to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns `bin serve -addr addr args...`, logging to logPath.
// The child is killed if the benchmark dies.
func startServer(bin, addr, logPath string, args []string) (*server, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr, "-snapshot-interval", "0"}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return &server{cmd: cmd, addr: addr, log: f}, nil
}

var probeClient = &http.Client{Timeout: time.Second}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := probeClient.Get("http://" + s.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("server %s not ready after %s (log %s)", s.addr, limit, s.log.Name())
}

// stop kills the child (no drain, so no snapshot is written) and waits.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// cpuTime is the child's user + system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(data)
	rest = rest[strings.LastIndexByte(rest, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the child's VmHWM in bytes.
func (s *server) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// serveStats is the part of /v1/stats the benchmark reads.
type serveStats struct {
	Hits, Misses, Shared, Evictions  uint64
	Admitted, Queued, Shed, Degraded uint64
	Restored                         uint64
	PeerHits                         uint64 `json:"peer_hits"`
	PeerMisses                       uint64 `json:"peer_misses"`
	PeerErrors                       uint64 `json:"peer_errors"`
	PeerRetries                      uint64 `json:"peer_retries"`
	BreakerOpen                      uint64 `json:"breaker_open"`
	Entries                          int
	SolverWorkersEffective           int `json:"solver_workers_effective"`
}

func (s *server) stats() (serveStats, error) {
	var st serveStats
	resp, err := probeClient.Get("http://" + s.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// deployment is the set of server processes one workload runs against. target
// receives the load; all are measured.
type deployment struct {
	procs  []*server
	target *server
}

func (f *deployment) stop() {
	for _, s := range f.procs {
		s.stop()
	}
	f.procs = nil
}

// serverSpec describes one process of a workload's deployment.
type serverSpec struct {
	name string
	args func(self string, all []string) []string
}

// launch starts every process of specs and waits until all are ready,
// returning the time from the first spawn to the last /readyz 200. The load
// goes to the last process.
func launch(bin, workDir string, specs []serverSpec) (*deployment, time.Duration, error) {
	addrs := make([]string, len(specs))
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		addrs[i] = a
	}
	f := &deployment{}
	t0 := time.Now()
	for i, sp := range specs {
		s, err := startServer(bin, addrs[i], filepath.Join(workDir, "server-"+sp.name+".log"), sp.args(addrs[i], addrs))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, s)
	}
	for _, s := range f.procs {
		if err := s.waitReady(60 * time.Second); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	setup := time.Since(t0)
	f.target = f.procs[len(f.procs)-1]
	return f, setup, nil
}

// cpuTime sums the CPU time of every process.
func (f *deployment) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, s := range f.procs {
		t, err := s.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS sums VmHWM over the processes.
func (f *deployment) peakRSS() (int64, error) {
	var sum int64
	for _, s := range f.procs {
		b, err := s.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}
