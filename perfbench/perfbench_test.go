package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// plans builds every workload's sequence for a seed, with made-up repetend
// sizes standing in for the ones the warm-state preparation measures.
func plans(seed uint64) []*plan {
	keys := workingSet()
	nr, stages := make([]int, len(keys)), make([]int, len(keys))
	for i := range keys {
		nr[i], stages[i] = 1+i%6, 4+i%15
	}
	hot := mixedHot()
	return []*plan{
		coldPlan(seed, 3),
		zipfPlan("warm", seed, keys, nr, stages, 2000, 2),
		mixedPlan(seed, hot, nr[:len(hot)], 24),
	}
}

func wire(t *testing.T, p *plan) []byte {
	t.Helper()
	bodies, err := p.bodies()
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, s := range bodies {
		for _, b := range s {
			all = append(append(all, b...), '\n')
		}
		all = append(all, '\n')
	}
	return all
}

// questions is the set of distinct (key, N) pairs p asks and the number of
// distinct placements (by wire name and key) it sends.
func questions(p *plan) (map[pair]bool, int) {
	pairs, names := map[pair]bool{}, map[question]bool{}
	for _, s := range p.Streams {
		for _, rq := range s {
			pairs[pair{rq.Key, rq.N}] = true
			names[question{Key: rq.Key, Name: rq.Name}] = true
		}
	}
	return pairs, len(names)
}

func TestSameSeedSameSequence(t *testing.T) {
	a, b := plans(7), plans(7)
	for i := range a {
		if !bytes.Equal(wire(t, a[i]), wire(t, b[i])) {
			t.Errorf("%s: two builds with seed 7 differ", a[i].Workload)
		}
	}
}

func TestHeldOutSeedSameGridNewSequence(t *testing.T) {
	a, b := plans(7), plans(8)
	for i := range a {
		if bytes.Equal(wire(t, a[i]), wire(t, b[i])) {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", a[i].Workload)
		}
		qa, na := questions(a[i])
		qb, nb := questions(b[i])
		if len(qa) != len(qb) || na != nb {
			t.Errorf("%s: seed 7 asks %d pairs of %d placements, seed 8 %d of %d", a[i].Workload, len(qa), na, len(qb), nb)
		}
		for q := range qa {
			if !qb[q] {
				t.Errorf("%s: seed 8 never asks %+v", a[i].Workload, q)
				break
			}
		}
		if a[i].requests() != b[i].requests() {
			t.Errorf("%s: %d requests with seed 7, %d with seed 8", a[i].Workload, a[i].requests(), b[i].requests())
		}
	}
}

// The mixed streams must put their shared misses at the same index, and
// both seeds must ask the same multiset of cold placements.
func TestMixedSharedMissesAlign(t *testing.T) {
	p := plans(3)[2]
	var idx [2][]int
	for c, s := range p.Streams {
		for i, rq := range s {
			if rq.Barrier {
				idx[c] = append(idx[c], i)
			}
		}
	}
	if len(idx[0]) == 0 || !slices.Equal(idx[0], idx[1]) {
		t.Fatalf("barrier indexes differ or are missing: %v vs %v", idx[0], idx[1])
	}
	cold := func(p *plan) []int {
		var keys []int
		for _, s := range p.Streams {
			for _, rq := range s {
				if rq.Key >= len(mixedHot()) {
					keys = append(keys, rq.Key)
				}
			}
		}
		slices.Sort(keys)
		return keys
	}
	if !slices.Equal(cold(p), cold(plans(4)[2])) {
		t.Error("the cold multiset depends on the seed")
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(10, 1000, 0.9)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Errorf("rank %d gets %d, more than rank %d's %d", i, n, i-1, c[i-1])
		}
	}
	if sum != 1000 {
		t.Errorf("counts sum to %d, want 1000", sum)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 5000}, {99, 5000}, {100, 9000}, {199, 9000}, {200, 9500},
		{499, 9500}, {500, 9800}, {999, 9800}, {1000, 9900}, {1999, 9900}, {2000, 9950}, {100000, 9950},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if tc.n >= 100 && tc.n-rankIndex(tc.n, got)-1 < 10 {
			t.Errorf("n=%d: p%d has fewer than 10 samples beyond it", tc.n, got)
		}
	}
}

func TestLatencySummaryCountsFailuresAsSlowest(t *testing.T) {
	var ok []time.Duration
	for i := 1; i <= 190; i++ {
		ok = append(ok, time.Duration(i)*time.Millisecond)
	}
	// 10 failures: 200 samples, so p95 has exactly 10 beyond it, and the
	// p95 sample itself is the slowest success.
	p50, tail, p, n := latencySummary(ok, 10, time.Hour)
	if n != 200 || p != 9500 {
		t.Fatalf("n=%d p=%d, want 200 and 9500", n, p)
	}
	if p50 != 100*time.Millisecond || tail != 190*time.Millisecond {
		t.Errorf("p50=%v tail=%v, want 100ms and 190ms", p50, tail)
	}
	if _, tail, _, _ = latencySummary(ok, 11, time.Hour); tail != time.Hour {
		t.Errorf("with 11 failures the p95 sample is a failure; got %v", tail)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 22, End: 25, Parent: 2},  // nested in b
		{Name: "other", Start: 0, End: 40, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := &recorder{spans: []span{{Name: "r", Parent: -1}, {Name: "x", Parent: 0}}}
	b := &recorder{spans: []span{{Name: "r", Parent: -1}, {Name: "y", Parent: 0}}}
	got := mergeSpans([]*recorder{a, b})
	if got[3].Parent != 2 || got[1].Parent != 0 || got[2].Parent != -1 {
		t.Errorf("parents after merge: %+v", got)
	}
}

func TestCleanestKeepsLeastStolenHalf(t *testing.T) {
	got := cleanest([]float64{0.2, 0, 0.1, 0.3, 0})
	if want := []int{1, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("cleanest = %v, want %v", got, want)
	}
	// Without steal it keeps every other segment, not the first half.
	if got, want := cleanest(make([]float64, 6)), []int{0, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("cleanest(no steal) = %v, want %v", got, want)
	}
}
