package main

// Per-layer metrics of a traced run. Timings come from the spans of the
// in-process replay (and, for serve, of the traced HTTP replay); counters
// come from the target server's /v1/stats and from the search statistics
// of the answers that were searched cold.

import "math"

func perLayer(warm *warmState, untraced, ph *phase, in *inprocRun, v *verdict) map[string]metric {
	m := map[string]metric{}
	put := func(name string, value float64, unit string) { m[name] = metric{value, unit} }
	count := func(name string, n uint64) { put(name, float64(n), "count") }

	// serve: the HTTP round trip and what it adds to the in-process work.
	var rtt, overhead, bytes []float64
	non200 := map[int]int{}
	for c, o := range ph.out {
		for i, r := range o {
			if r.Status != 200 {
				non200[r.Status/100]++
				continue
			}
			rtt = append(rtt, us(r.Lat))
			bytes = append(bytes, float64(r.Bytes))
			overhead = append(overhead, us(r.Lat-in.records[c][i].Layers))
		}
	}
	put("serve.rtt_us", median(rtt), "us")
	put("serve.overhead_us", median(overhead), "us")
	put("serve.resp_bytes", median(bytes), "bytes")
	put("serve.non200", float64(non200[0]+non200[1]+non200[3]+non200[4]+non200[5]), "count")
	put("serve.non200_4xx", float64(non200[4]), "count")
	put("serve.non200_5xx", float64(non200[5]), "count")

	// Span durations by name, and engine-side splits by how a request was
	// served.
	byName := map[string][]float64{}
	var rootSelf []float64
	self := selfTimes(in.spans)
	for i, s := range in.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start))
		if s.Name == "request" {
			rootSelf = append(rootSelf, float64(self[i])/1e3)
		}
	}
	medUS := func(name string) float64 { return median(byName[name]) / 1e3 }
	var hit, extend, cold, wait, search, warmup, rep, cool, entry []float64
	for _, recs := range in.records {
		for _, r := range recs {
			switch {
			case r.Hit && r.Exact:
				hit = append(hit, us(r.Serve))
			case r.Hit:
				extend = append(extend, us(r.Serve))
			case r.PeerHit:
				entry = append(entry, float64(r.EntryBytes))
			case !r.Shared:
				cold = append(cold, ms(r.Serve))
				wait = append(wait, ms(r.Serve-r.Stats.Total))
				search = append(search, ms(r.Stats.Total))
				warmup = append(warmup, ms(r.Stats.Phase.Warmup))
				rep = append(rep, ms(r.Stats.Phase.Repetend))
				cool = append(cool, ms(r.Stats.Phase.Cooldown))
			}
		}
	}
	put("sched.decode_us", medUS("sched.decode"), "us")
	put("sched.fingerprint_us", medUS("sched.fingerprint"), "us")
	put("sched.encode_us", medUS("sched.encode"), "us")

	t := ph.target()
	put("engine.hit_us", median(hit), "us")
	put("engine.extend_us", median(extend), "us")
	put("engine.cold_ms", median(cold), "ms")
	put("engine.wait_ms", median(wait), "ms")
	put("engine.restore_ms", ms(in.restore), "ms")
	snapBytes := 0.0
	if warm != nil {
		snapBytes = float64(warm.bytes)
	}
	put("engine.snapshot_bytes", snapBytes, "bytes")
	count("engine.hits", t.Hits)
	count("engine.misses", t.Misses)
	count("engine.shared", t.Shared)
	count("engine.evictions", t.Evictions)
	put("engine.hit_ratio", ratio(float64(t.Hits), float64(t.Hits+t.Misses+t.Shared)), "ratio")

	count("admit.admitted", t.Admitted)
	count("admit.queued", t.Queued)
	count("admit.shed", t.Shed)
	count("admit.degraded", t.Degraded)
	put("admit.queued_share", ratio(float64(t.Queued), float64(t.Admitted)), "ratio")

	put("peer.fetch_us", medUS("peer.fetch"), "us")
	put("peer.encode_us", medUS("peer.encode"), "us")
	put("peer.insert_us", medUS("peer.insert"), "us")
	put("peer.entry_bytes", median(entry), "bytes")
	count("peer.hits", t.PeerHits)
	count("peer.misses", t.PeerMisses)
	count("peer.errors", t.PeerErrors)
	count("peer.retries", t.PeerRetries)
	put("peer.hit_ratio", ratio(float64(t.PeerHits), float64(t.PeerHits+t.PeerMisses)), "ratio")

	// core, repetend, solver: effort summed over the answers searched cold
	// over HTTP.
	var sum searchStats
	repSeconds, truncated := 0.0, 0
	for _, s := range v.cold {
		sum.Assignments += s.Assignments
		sum.Solved += s.Solved
		sum.Pruned += s.Pruned
		sum.NRSwept += s.NRSwept
		sum.SolverNodes += s.SolverNodes
		sum.MemoHits += s.MemoHits
		sum.SharedMemoHits += s.SharedMemoHits
		sum.JobsStolen += s.JobsStolen
		sum.PeriodProbes += s.PeriodProbes
		sum.PeriodRelaxations += s.PeriodRelaxations
		sum.LocalSearchSwaps += s.LocalSearchSwaps
		if s.NodesPerSec > 0 {
			repSeconds += float64(s.SolverNodes) / s.NodesPerSec
		}
		if s.Truncated {
			truncated++
		}
	}
	nCold := float64(len(v.cold))
	put("core.search_ms", median(search), "ms")
	put("core.warmup_ms", median(warmup), "ms")
	put("core.repetend_ms", median(rep), "ms")
	put("core.cooldown_ms", median(cool), "ms")
	put("core.extend_us", medUS("core.extend"), "us")
	put("core.direct_ms", medUS("core.direct")/1e3, "ms")
	put("core.searches", nCold, "count")
	put("core.assignments", float64(sum.Assignments), "count")
	put("core.solved", float64(sum.Solved), "count")
	put("core.pruned", float64(sum.Pruned), "count")
	put("core.prune_ratio", ratio(float64(sum.Pruned), float64(sum.Assignments)), "ratio")
	put("core.nr_swept", ratio(float64(sum.NRSwept), nCold), "count")
	put("core.truncated", float64(truncated), "count")

	put("repetend.period_probes", float64(sum.PeriodProbes), "count")
	put("repetend.relaxations", float64(sum.PeriodRelaxations), "count")
	put("repetend.ls_swaps", float64(sum.LocalSearchSwaps), "count")
	put("repetend.probes_per_solve", ratio(float64(sum.PeriodProbes), float64(sum.Solved)), "count")

	put("solver.nodes", float64(sum.SolverNodes), "count")
	put("solver.nodes_per_s", ratio(float64(sum.SolverNodes), repSeconds), "1/s")
	put("solver.memo_hits", float64(sum.MemoHits), "count")
	put("solver.memo_hit_ratio", ratio(float64(sum.MemoHits), float64(sum.SolverNodes)), "ratio")
	put("solver.shared_memo_hits", float64(sum.SharedMemoHits), "count")
	put("solver.jobs_stolen", float64(sum.JobsStolen), "count")
	put("solver.workers_effective", float64(t.SolverWorkersEffective), "count")
	// The whole-problem exact solves (N < N_R) report no counters over
	// HTTP; the in-process replay's solver.Result shows whether they ran in
	// jobs mode.
	put("solver.direct_nodes", float64(in.direct.Nodes), "count")
	put("solver.direct_shared_memo_hits", float64(in.direct.SharedMemoHits), "count")
	put("solver.direct_jobs_stolen", float64(in.direct.JobsStolen), "count")
	// Effort counters are not exactly repeatable (the sweep's producer runs
	// ahead of incumbent publication), so report their spread: the largest
	// relative range of solver nodes over the repeated searches of one
	// question, among questions searched at least twice with a median of
	// at least 1000 nodes.
	spread := 0.0
	for _, nodes := range v.coldByKey {
		xs := make([]float64, len(nodes))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, n := range nodes {
			xs[i] = float64(n)
			lo, hi = math.Min(lo, xs[i]), math.Max(hi, xs[i])
		}
		if med := median(xs); len(xs) > 1 && med >= 1000 {
			spread = math.Max(spread, (hi-lo)/med)
		}
	}
	put("solver.nodes_spread", spread, "ratio")

	put("client.cpu_share", ratio(untraced.clientCPU.Seconds(), untraced.wall.Seconds()), "ratio")
	put("trace.overhead_pct", 100*ratio((ph.wall-untraced.wall).Seconds(), untraced.wall.Seconds()), "%")
	put("trace.root_self_us", median(rootSelf), "us")
	put("trace.spans", float64(len(in.spans)+len(ph.spans)), "count")
	put("trace.inproc_wall_s", in.wall.Seconds(), "s")
	return m
}
