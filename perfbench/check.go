package main

// The output gate: every distinct answer the server gave is decoded,
// validated and compared with the in-process reference.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"tessel/internal/sched"
)

// searchResponse is the part of a /v1/search answer the benchmark reads.
type searchResponse struct {
	CacheHit   bool            `json:"cache_hit"`
	Degraded   bool            `json:"degraded"`
	PeerHit    bool            `json:"peer_hit"`
	N          int             `json:"n"`
	Makespan   int             `json:"makespan"`
	LowerBound int             `json:"lower_bound"`
	Period     int             `json:"period"`
	Stats      searchStats     `json:"stats"`
	Schedule   json.RawMessage `json:"schedule"`
}

type searchStats struct {
	Assignments       int64   `json:"assignments"`
	Solved            int64   `json:"solved"`
	Pruned            int64   `json:"pruned"`
	NRSwept           int64   `json:"nr_swept"`
	SolverNodes       int64   `json:"solver_nodes"`
	MemoHits          int64   `json:"memo_hits"`
	SharedMemoHits    int64   `json:"shared_memo_hits"`
	JobsStolen        int64   `json:"jobs_stolen"`
	NodesPerSec       float64 `json:"nodes_per_sec"`
	PeriodProbes      int64   `json:"period_probes"`
	PeriodRelaxations int64   `json:"period_relaxations"`
	LocalSearchSwaps  int64   `json:"local_search_swaps"`
	Truncated         bool    `json:"truncated"`
}

// verdict is the outcome of checking a run's answers.
type verdict struct {
	problems      []string
	periodRatio   float64 // geomean over distinct placements of period / lower bound
	makespanRatio float64 // geomean over distinct (placement, N) of makespan / (N · lower bound)
	distinct      int
	// cold holds the search statistics of every distinct answer that was
	// searched (not a cache or peer hit), for the effort counters.
	cold []searchStats
	// coldByKey groups node counts of repeated searches of one key.
	coldByKey map[pair][]int64
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verify checks every captured answer against its reference.
func verify(p *plan, cp *capture, refs map[pair]reference) *verdict {
	v := &verdict{problems: append([]string(nil), cp.mismatch...), coldByKey: map[pair][]int64{}}
	for status, n := range cp.nonOK {
		v.fail("%d answers with status %d", n, status)
	}
	qs := make([]question, 0, len(cp.first))
	for q := range cp.first {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(a, b int) bool {
		if qs[a].Name != qs[b].Name {
			return qs[a].Name < qs[b].Name
		}
		return qs[a].N < qs[b].N
	})
	var periods, makespans []float64
	seenPlacement := map[question]bool{}
	for _, q := range qs {
		ref, ok := refs[pair{q.Key, q.N}]
		if !ok {
			v.fail("%s n=%d: no reference", q.Name, q.N)
			continue
		}
		cfg := p.Keys[q.Key]
		var r searchResponse
		if err := json.Unmarshal(cp.first[q], &r); err != nil {
			v.fail("%s n=%d: decode answer: %v", q.Name, q.N, err)
			continue
		}
		s, err := sched.DecodeSchedule(bytes.NewReader(r.Schedule))
		if err != nil {
			v.fail("%s n=%d: decode schedule: %v", q.Name, q.N, err)
			continue
		}
		if err := s.Validate(sched.ValidateOptions{Memory: normMem(cfg.Memory)}); err != nil {
			v.fail("%s n=%d: invalid schedule: %v", q.Name, q.N, err)
		}
		if s.P.Name != q.Name {
			v.fail("%s n=%d: schedule is for placement %q", q.Name, q.N, s.P.Name)
		}
		if q.N > 0 && r.N != q.N {
			v.fail("%s: asked n=%d, answered n=%d", q.Name, q.N, r.N)
		}
		if r.Stats.Truncated {
			v.fail("%s n=%d: truncated search", q.Name, q.N)
		}
		if r.Degraded {
			v.fail("%s n=%d: degraded answer", q.Name, q.N)
		}
		s.P.Name = cfg.name() // cold copies carry a suffix; the schedule must match the base one
		switch {
		case r.Period != ref.Period || r.Makespan != ref.Makespan || r.LowerBound != ref.LowerBound:
			v.fail("%s n=%d: period/makespan/lower bound %d/%d/%d, want %d/%d/%d", q.Name, q.N,
				r.Period, r.Makespan, r.LowerBound, ref.Period, ref.Makespan, ref.LowerBound)
		case s.Makespan() != r.Makespan:
			v.fail("%s n=%d: schedule makespan %d, reported %d", q.Name, q.N, s.Makespan(), r.Makespan)
		case sched.FingerprintSchedule(s) != ref.Fingerprint:
			v.fail("%s n=%d: schedule differs from the in-process search", q.Name, q.N)
		}
		if !r.CacheHit && !r.PeerHit {
			v.cold = append(v.cold, r.Stats)
			v.coldByKey[pair{q.Key, q.N}] = append(v.coldByKey[pair{q.Key, q.N}], r.Stats.SolverNodes)
		}
		if r.LowerBound <= 0 || r.N <= 0 {
			v.fail("%s n=%d: lower bound %d, n %d", q.Name, q.N, r.LowerBound, r.N)
			continue
		}
		if pq := (question{Key: q.Key, Name: q.Name}); !seenPlacement[pq] {
			seenPlacement[pq] = true
			periods = append(periods, float64(r.Period)/float64(r.LowerBound))
		}
		makespans = append(makespans, float64(r.Makespan)/float64(r.N*r.LowerBound))
	}
	for _, s := range p.Streams {
		for _, rq := range s {
			if cp.count[question{rq.Key, rq.Name, rq.N}] == 0 {
				v.fail("%s n=%d: never answered", rq.Name, rq.N)
			}
		}
	}
	v.distinct = len(qs)
	v.periodRatio, v.makespanRatio = geomean(periods), geomean(makespans)
	return v
}
