package main

import (
	"slices"
	"time"
)

// span is one traced call at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent indexes the enclosing span
// (-1 for a root); Req is the request the call served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory for one goroutine; recorders are merged
// after the run, so recording takes no lock.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = int64(time.Since(r.epoch))
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

// mergeSpans concatenates per-goroutine recorders sharing one epoch,
// rebasing parent indexes.
func mergeSpans(rs []*recorder) []span {
	var out []span
	for _, r := range rs {
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and a child's time outside the parent's interval is not subtracted).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
