package main

import (
	"path/filepath"
	"runtime"
	"time"

	"rica/internal/experiment"
	"rica/internal/network"
	"rica/internal/obs"
)

// layerPasses runs cells twice. The first pass is untraced, under a CPU
// profile and allocation counters: it gives cpu.* and runtime.*, the
// reference fingerprints, and the untraced run-phase time. The second
// pass wraps every layer boundary in spans and must reproduce each
// cell's fingerprint, event count and obs snapshot exactly: tracing may
// cost time but never change the simulation.
func layerPasses(o opts, cells []cellSpec, step time.Duration, r *report) {
	sink := discardSink()
	ref := make([]string, len(cells))
	var (
		refRun   time.Duration
		events   uint64
		m0, m1   runtime.MemStats
		refFirst digest
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	prof, err := startProfile(filepath.Join(o.build, "tmp"))
	if err != nil {
		r.problem("cpu profile: %v", err)
	}
	for i, c := range cells {
		runtime.GC()
		cr := runCell(c, nil, step, sink, false)
		r.attempted++
		if cr.err != nil {
			r.failed++
			r.problem("%v", cr.err)
			continue
		}
		ref[i] = fingerprint(cr.summary)
		refFirst.add(ref[i])
		refRun += cr.runD + cr.finishD
		events += cr.summary.Events
	}
	var shares map[string]float64
	if prof != nil {
		if shares, err = prof.stop(); err != nil {
			r.problem("cpu profile: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)

	tr := newTracer()
	var (
		tracedRun time.Duration
		tot       obs.Snapshot
		drops     = map[network.DropReason]int{}
		changed   int
	)
	for i, c := range cells {
		runtime.GC()
		cr := runCell(c, tr, step, sink, false)
		if cr.err != nil {
			r.failed++
			r.problem("traced: %v", cr.err)
			continue
		}
		if ref[i] != "" && fingerprint(cr.summary) != ref[i] {
			changed++
			r.failed++
			r.problem("tracing changed %s/%s seed %d:\n  untraced %s\n  traced   %s",
				c.spec.Name, c.proto, c.seed, ref[i], fingerprint(cr.summary))
		}
		tracedRun += cr.runD + cr.finishD
		addObs(&tot, cr.summary.Obs)
		for k, v := range cr.summary.Dropped {
			drops[k] += v
		}
	}
	r.note("digest of the untraced pass %s; cells whose traced fingerprint differs: %d", &refFirst, changed)

	addSpanMetrics(r, tr)
	ev := float64(max(events, 1))
	r.add("sim.events_dispatched", "count", float64(tot.EventsDispatched))
	r.add("sim.events_scheduled", "count", float64(tot.EventsScheduled))
	r.add("sim.timers_cancelled", "count", float64(tot.TimersCancelled))
	r.add("sim.ladder_far_pushes", "count", float64(tot.LadderFarPushes))
	r.add("routing.flood_suppressed", "count", float64(tot.FloodSuppressed))
	r.add("routing.spt_recomputes", "count", float64(tot.SPTRecomputes))
	r.add("routing.history_spills", "count", float64(tot.HistorySpills))
	r.add("channel.class_hit_ratio", "ratio", ratio(tot.ClassHits, tot.ClassMisses))
	r.add("channel.dist_hit_ratio", "ratio", ratio(tot.DistHits, tot.DistMisses))
	r.add("channel.trans_hit_ratio", "ratio", ratio(tot.TransHits, tot.TransMisses))
	r.add("channel.grid_rebuilds", "count", float64(tot.GridRebuilds))
	r.add("mac.backoffs", "count", float64(tot.MACBackoffs))
	r.add("mac.collisions", "count", float64(tot.MACCollisions))
	for _, d := range []network.DropReason{network.DropCongestion, network.DropExpired, network.DropNoRoute, network.DropLinkBreak} {
		r.add("network.drops."+d.String(), "count", float64(drops[d]))
	}
	r.add("traffic.generated", "count", float64(tot.TrafficGenerated))
	r.add("packet.drain_released", "count", float64(tot.DrainReleased))
	r.add("runtime.alloc_bytes_per_event", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/ev)
	r.add("runtime.allocs_per_event", "count", float64(m1.Mallocs-m0.Mallocs)/ev)
	r.add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	r.add("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	for _, l := range append(cpuLayers, "other") {
		r.add("cpu."+l, "share", shares[l])
	}
	r.add("trace.overhead_frac", "ratio", tracedRun.Seconds()/refRun.Seconds()-1)
}

// addSpanMetrics reports the tracer's totals. Times inside the run phase
// are self times, so routing.self_share, the Env-call shares and
// engine.self_share add up to one.
func addSpanMetrics(r *report, tr *tracer) {
	run := tr.total[spanSimRun]
	r.add("world.new_ms", "ms", ms(tr.total[spanWorldNew]))
	r.add("world.start_ms", "ms", ms(tr.total[spanWorldStart]))
	r.add("world.finish_ms", "ms", ms(tr.total[spanWorldFinish]))
	r.add("sim.run_ms", "ms", ms(run))
	r.add("routing.factory_ms", "ms", ms(tr.total[spanFactory]))
	var routingSelf time.Duration
	for s := spanHandleControl; s <= spanTimer; s++ {
		name := spanNames[s]
		r.add(name+".calls", "count", float64(tr.calls[s]))
		r.add(name+".self_ms", "ms", ms(tr.runSelf[s]))
		routingSelf += tr.runSelf[s]
	}
	for _, p := range experiment.AllProtocols() {
		r.add("routing."+p.String()+".self_ms", "ms", ms(tr.protoSelf[p]))
	}
	r.add("routing.self_share", "share", share(routingSelf, run))
	for _, s := range []span{spanSchedule, spanSendControl, spanEnqueueData, spanDropData, spanLinkClass} {
		r.add(spanNames[s]+".calls", "count", float64(tr.calls[s]))
		r.add(spanNames[s]+".ms", "ms", ms(tr.runSelf[s]))
	}
	r.add("engine.self_share", "share", share(tr.runSelf[spanSimRun], run))
	r.add("timeseries.emit_ms", "ms", ms(tr.total[spanEmit]))
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// addObs sums the counters the report uses.
func addObs(t *obs.Snapshot, s *obs.Snapshot) {
	if s == nil {
		return
	}
	t.EventsDispatched += s.EventsDispatched
	t.EventsScheduled += s.EventsScheduled
	t.TimersCancelled += s.TimersCancelled
	t.LadderFarPushes += s.LadderFarPushes
	t.ClassHits += s.ClassHits
	t.ClassMisses += s.ClassMisses
	t.DistHits += s.DistHits
	t.DistMisses += s.DistMisses
	t.TransHits += s.TransHits
	t.TransMisses += s.TransMisses
	t.GridRebuilds += s.GridRebuilds
	t.MACBackoffs += s.MACBackoffs
	t.MACCollisions += s.MACCollisions
	t.FloodSuppressed += s.FloodSuppressed
	t.HistorySpills += s.HistorySpills
	t.SPTRecomputes += s.SPTRecomputes
	t.TrafficGenerated += s.TrafficGenerated
	t.DrainReleased += s.DrainReleased
}
