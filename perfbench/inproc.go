package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"rica"
	"rica/internal/experiment"
	"rica/internal/metrics"
	"rica/internal/obs"
	"rica/internal/scenario"
	"rica/internal/timeseries"
	"rica/internal/world"
)

// Workload shape. The horizon truncates the paper field's own 500 s so
// that one run averages over several seeds.
const (
	paperRate    = 20 // pkt/s per flow: the paper's Figures 2b, 3b and 4b
	paperHorizon = 20 * time.Second
	// The in-process op is one step of simulated time: world.RunTo
	// advancing a run by this much, the unit of progress a watcher of a
	// run waits on. Steps give a run thousands of ops, so the quantiles
	// are smooth where per-cell times, spread over five protocols, are not.
	paperStep  = time.Second
	setupReps  = 21 // set-up is repeated and its median reported
	checkDepth = time.Second
)

var paperSpeeds = []float64{0, 36, 72} // km/h

// cellSpec is one (scenario, protocol, seed) simulation, built exactly
// as the batch engine builds a grid cell.
type cellSpec struct {
	spec      scenario.Spec
	cfg       world.Config
	proto     experiment.Protocol
	seed      int64
	telemetry bool // collect a 1 s timeline and emit it to the sink
}

func mustCell(spec scenario.Spec, p experiment.Protocol, seed int64, telemetry bool) cellSpec {
	cfg, err := spec.Compile()
	if err != nil {
		panic(fmt.Sprintf("perfbench: scenario %s does not compile: %v", spec.Name, err))
	}
	return cellSpec{spec: spec, cfg: cfg, proto: p, seed: seed, telemetry: telemetry}
}

func mustScenario(name string) scenario.Spec {
	s, err := scenario.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	return s
}

// paperPass is one trial of the paper-sweep grid: the paper-baseline
// field at 20 pkt/s for every protocol at every mean speed, in the batch
// engine's scenario-major order, all on one seed.
func paperPass(seed int64) []cellSpec {
	base := mustScenario("paper-baseline")
	base.Traffic.Rate = paperRate
	base.Duration = scenario.Duration(paperHorizon)
	var cells []cellSpec
	for _, v := range paperSpeeds {
		s := base
		s.Name = fmt.Sprintf("paper-sweep-%gkmh", v)
		s.Topology.MeanSpeedKmh = v
		for _, p := range experiment.AllProtocols() {
			cells = append(cells, mustCell(s, p, seed, true))
		}
	}
	return cells
}

// cellRun is one executed cell, phase by phase, on the process CPU
// clock; runWall is the run phase (RunTo + Finish) on the wall clock.
type cellRun struct {
	newD, startD, runD, finishD time.Duration
	runWall                     time.Duration
	steps                       []time.Duration // per-step RunTo times when stepping
	summary                     metrics.Summary
	err                         error
}

// runCell executes one cell: world.New, Start, RunTo (in steps of step
// when step > 0), Finish, then the timeline goes to sink. With a nil
// tracer nothing is wrapped. A panic is caught and returned as the
// cell's error, like the batch engine's quarantine. setupOnly stops
// after Start.
func runCell(c cellSpec, tr *tracer, step time.Duration, sink timeseries.Sink, setupOnly bool) (r cellRun) {
	defer func() {
		if p := recover(); p != nil {
			tr.reset()
			r.err = fmt.Errorf("%s/%s seed %d panicked: %v", c.spec.Name, c.proto, c.seed, p)
		}
	}()
	cfg := c.cfg // each cell mutates its own copy
	cfg.Seed = c.seed
	cfg.Obs = obs.NewRegistry()
	if c.telemetry {
		cfg.Timeseries = timeseries.NewCollector(time.Second, cfg.Duration)
	}
	factory := experiment.Factory(c.proto, c.spec.Traffic.Rate)
	if tr != nil {
		tr.proto = c.proto
		factory = tr.wrapFactory(factory)
	}

	t0 := cpuNow()
	tr.begin(spanWorldNew)
	w := world.New(cfg, factory)
	tr.end()
	t1 := cpuNow()
	tr.begin(spanWorldStart)
	w.Start()
	tr.end()
	t2 := cpuNow()
	r.newD, r.startD = t1-t0, t2-t1
	if setupOnly {
		return r
	}
	w2 := time.Now()

	tr.begin(spanSimRun)
	if step > 0 {
		for at := step; at < cfg.Duration+step; at += step {
			at = min(at, cfg.Duration)
			s := cpuNow()
			w.RunTo(at)
			r.steps = append(r.steps, cpuNow()-s)
		}
	} else {
		w.RunTo(cfg.Duration)
	}
	tr.end()
	t3 := cpuNow()
	tr.begin(spanWorldFinish)
	r.summary = w.Finish()
	tr.end()
	t4 := cpuNow()
	r.runD, r.finishD = t3-t2, t4-t3
	r.runWall = time.Since(w2)

	if cfg.Timeseries != nil {
		tl := cfg.Timeseries.Timeline()
		run := timeseries.Run{Scenario: c.spec.Name, Protocol: c.proto.String(), Seed: c.seed}
		tr.begin(spanEmit)
		err := sink.Emit(run, tl)
		tr.end()
		if err != nil {
			r.err = fmt.Errorf("telemetry sink: %w", err)
			return r
		}
	}
	if err := rica.CheckInvariants(r.summary); err != nil {
		r.err = fmt.Errorf("%s/%s seed %d: %w", c.spec.Name, c.proto, c.seed, err)
	}
	return r
}

// cpuNow reads the process CPU clock. In-process phases are timed on it
// rather than on the wall clock: it counts every thread's work (the
// simulation and the garbage collector alike) but not the time a shared
// host steals from the virtual CPU, which on such machines moves
// wall-clock readings by tens of percent from one minute to the next.
// The price is a blind spot: work moved off the simulation goroutine or
// run in parallel still counts in full, so a change that gains only in
// parallelism does not show in the CPU-clock figures. The wall-clock run
// time is printed beside them as a record line for that case.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// discardSink is the batch telemetry sink of paper-sweep: JSON Lines
// encoded in full and thrown away.
func discardSink() timeseries.Sink { return timeseries.NewJSONLSink(io.Discard) }

// fingerprint is everything a cell's simulated statistics say:
// rica.Fingerprint, which omits the event count and the obs counters,
// plus both.
func fingerprint(s metrics.Summary) string {
	o, _ := json.Marshal(s.Obs)
	return fmt.Sprintf("%s events=%d obs=%s", rica.Fingerprint(s), s.Events, o)
}

// digest folds fingerprints in order into a short hex id.
type digest struct {
	h     [32]byte
	cells int
}

func (d *digest) add(fp string) {
	d.h = sha256.Sum256(append(d.h[:], fp...))
	d.cells++
}

func (d *digest) String() string {
	return fmt.Sprintf("%s over %d cells", hex.EncodeToString(d.h[:8]), d.cells)
}

// setupTime is the median, over setupReps repetitions, of the summed
// world.New + Start time of the given cells.
func setupTime(cells []cellSpec, r *report) time.Duration {
	var reps []float64
	for i := 0; i < setupReps; i++ {
		var sum time.Duration
		for _, c := range cells {
			cr := runCell(c, nil, 0, nil, true)
			if cr.err != nil {
				r.problem("set-up: %v", cr.err)
			}
			sum += cr.newD + cr.startD
		}
		reps = append(reps, float64(sum))
	}
	return time.Duration(quantile(reps, 0.5))
}

// runPaperSweep is the paper's mobility sweep (Figures 2b/3b/4b): every
// routing protocol, static and mobile fields, and the only workload whose
// observation path (timeline collection and export) does real work.
func runPaperSweep(o opts) *report {
	if o.trace {
		r := &report{}
		layerPasses(o, paperPass(o.seed), paperStep, r)
		return r
	}
	return measureInproc(o, paperPass, paperStep)
}

// measureInproc is the untraced in-process run: a check that runCell
// reproduces rica.RunBatch (which also warms the process up), set-up
// repetitions, then whole passes — pass k on seed+k, like batch trials —
// until the time is up. Every cell is timed on the process CPU clock
// after a forced collection, so one cell's garbage is not charged to the
// next, and has its own resident-set high-water mark. A pass's peak is
// its largest cell's; the reported peak is the median pass's, so a
// regression confined to one protocol or one speed still moves it, while
// a single outlying pass does not.
func measureInproc(o opts, pass func(seed int64) []cellSpec, step time.Duration) *report {
	r := &report{}
	checkRunBatch(pass(o.seed)[0], r)
	setup := setupTime(pass(o.seed), r)

	sink := discardSink()
	var (
		ops, passSpeeds, passRSS []float64
		simS, runS, runWallS     float64
		events                   uint64
		first                    digest
	)
	start := time.Now()
	for k := int64(0); k == 0 || time.Since(start) < o.seconds; k++ {
		var ps, pr, peak float64
		for _, c := range pass(o.seed + k) {
			runtime.GC()
			resetPeakRSS(r)
			cr := runCell(c, nil, step, sink, false)
			peak = max(peak, peakRSSMiB(r))
			r.attempted++
			if cr.err != nil {
				r.failed++
				r.problem("%v", cr.err)
				continue
			}
			if k == 0 {
				first.add(fingerprint(cr.summary))
			}
			ops = append(ops, durMs(cr.steps)...)
			ps += c.cfg.Duration.Seconds()
			pr += (cr.runD + cr.finishD).Seconds()
			runWallS += cr.runWall.Seconds()
			events += cr.summary.Events
		}
		simS += ps
		runS += pr
		passSpeeds = append(passSpeeds, ps/pr)
		passRSS = append(passRSS, peak)
	}

	r.add("setup_s", "s", setup.Seconds())
	r.add("sim_speed", "sim-s/s", simS/runS)
	r.add("events_per_s", "1/s", float64(events)/runS)
	r.add("peak_rss_mb", "MiB", quantile(passRSS, 0.5))
	r.add("op_p50_ms", "ms", quantile(ops, 0.5))
	r.add("op_p90_ms", "ms", quantile(ops, 0.9))
	r.note("ops %d (%s has ten beyond it); digest of the seed-%d pass %s; sim speed by pass %.4g",
		len(ops), tailLabel(len(ops)), o.seed, &first, passSpeeds)
	r.note("wall clock (record only; the metrics above are CPU-clock): run phase %.3f s, sim speed %.4g sim-s/s, %.4g events/s",
		runWallS, simS/runWallS, float64(events)/runWallS)
	r.note("peak resident set by pass %.4g MiB", passRSS)
	return r
}

// checkRunBatch runs c, truncated to checkDepth, both through runCell
// and through rica.RunBatch, and records a problem unless the two
// agree on every simulated count: the cells this benchmark times are the
// batch engine's own work.
func checkRunBatch(c cellSpec, r *report) {
	c.spec.Duration = scenario.Duration(min(checkDepth, time.Duration(c.spec.Duration)))
	c.cfg.Duration = time.Duration(c.spec.Duration)
	mine := runCell(c, nil, 0, discardSink(), false)
	if mine.err != nil {
		r.problem("RunBatch check: %v", mine.err)
		return
	}
	cfg := rica.BatchConfig{
		Scenarios: []rica.Scenario{c.spec}, Protocols: []rica.Protocol{c.proto},
		Trials: 1, BaseSeed: c.seed, Workers: 1,
	}
	if c.telemetry {
		cfg.Telemetry = &rica.BatchTelemetry{Interval: time.Second, Sink: discardSink()}
	}
	res, err := rica.RunBatch(cfg)
	if err != nil || len(res.Cells) != 1 || res.Cells[0].Poisoned() {
		r.problem("RunBatch check: RunBatch failed: %v %+v", err, res.Cells)
		return
	}
	got := res.Cells[0]
	a, _ := json.Marshal(got.Obs)
	b, _ := json.Marshal(mine.summary.Obs)
	if got.Events != mine.summary.Events || got.Generated != mine.summary.Generated ||
		got.Delivered != mine.summary.Delivered || string(a) != string(b) {
		r.problem("RunBatch check: the benchmark's cell differs from RunBatch's (events %d vs %d)",
			mine.summary.Events, got.Events)
	}
}

// peakRSSMiB is this process's resident-set high-water mark (VmHWM)
// since the last resetPeakRSS. A failed read is a problem, not a
// fallback: getrusage's maximum is the process's lifetime one, which
// clear_refs never resets.
func peakRSSMiB(r *report) float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		r.problem("reading the resident-set high-water mark: %v", err)
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				r.problem("reading the resident-set high-water mark: %v", err)
				return 0
			}
			return float64(kib) / 1024
		}
	}
	r.problem("reading the resident-set high-water mark: no VmHWM line")
	return 0
}

// resetPeakRSS restarts the high-water mark that peakRSSMiB reads.
func resetPeakRSS(r *report) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.problem("resetting the resident-set high-water mark: %v", err)
	}
}
