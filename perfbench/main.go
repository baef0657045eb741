// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points — in-process worlds built exactly the
// way rica.RunBatch builds them, and the `ricasim serve` daemon over HTTP —
// and prints one JSON result line as the last line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run, after
// checking that tracing did not change a single simulated statistic.
// Every line before the JSON line is a human-readable record: the host
// stamp, every metric by name with its unit, and the fingerprint digest.
//
// An op is what a user of the workload waits on: in-process, one step of
// simulated time (1 s of a paper-sweep cell); served, one job from submit
// to the last result byte. In-process times are read on the process CPU
// clock (CPU-seconds, with the wall-clock run time as a record line),
// served times on the client's wall clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its runner. Why each exists is
// recorded on the runner functions and in BENCHMARK.json.
var workloads = map[string]func(opts) *report{
	"paper-sweep": runPaperSweep,
	"served-grid": runServedGrid,
}

// opts are one invocation's arguments.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	build   string // directory holding the built ricasim binary and scratch files
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: paper-sweep or served-grid")
		seed     = flag.Int64("seed", 1, "workload seed (the batch base seed or the job seed)")
		seconds  = flag.Int("seconds", 15, "how long the measurement runs, in host seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced end-to-end run")
		build    = flag.String("build", ".bench_build", "directory with the built ricasim binary; scratch files go here too")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {paper-sweep,served-grid}, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// The batch engine and the daemon read seed 0 as "the default, 1", so
	// seeds below 1 are folded onto the positive ones: 0 → 1, -1 → 2, ….
	base := *seed
	if base < 1 {
		base = 1 - base
	}
	o := opts{seed: base, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, build: *build}

	stamp := hostStamp()
	line, _ := json.Marshal(stamp)
	fmt.Printf("host %s\n", line)
	r := run(o)
	r.print(os.Stdout, o.trace)
	if !r.correct() {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects one invocation's measurements and checks.
type report struct {
	attempted int      // ops tried: cells in-process, jobs served
	failed    int      // ops that panicked, broke an invariant, were refused or returned wrong bytes
	problems  []string // every correctness failure, for the record
	metrics   []metric // in print order
	notes     []string // digests and other record lines
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 && r.attempted > 0 }

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// the JSON line carries exactly one of the two sets (TestBenchmarkJSON
// keeps them in step with the file). Both hold only metrics every
// workload measures: the per-layer times that are zero by construction
// on some workload (serve.*, batch.cell_ms, timeseries.emit_ms,
// routing.link_failed.self_ms, routing.<protocol>.self_ms) are printed
// in the record lines only.
var endToEnd = []string{
	"setup_s", "sim_speed", "events_per_s", "peak_rss_mb", "op_p50_ms", "op_p90_ms",
}

var perLayer = []string{
	"world.new_ms", "world.start_ms", "world.finish_ms",
	"sim.run_ms", "sim.events_dispatched", "sim.events_scheduled", "sim.timers_cancelled",
	"sim.ladder_far_pushes", "sim.schedule.calls", "sim.schedule.ms",
	"routing.factory_ms",
	"routing.handle_control.calls", "routing.handle_control.self_ms",
	"routing.route_data.calls", "routing.route_data.self_ms",
	"routing.data_arrived.calls", "routing.data_arrived.self_ms",
	"routing.timer.calls", "routing.timer.self_ms",
	"routing.link_failed.calls",
	"routing.self_share", "routing.flood_suppressed", "routing.spt_recomputes", "routing.history_spills",
	"channel.link_class.calls", "channel.link_class.ms",
	"channel.class_hit_ratio", "channel.dist_hit_ratio", "channel.trans_hit_ratio", "channel.grid_rebuilds",
	"mac.send_control.calls", "mac.send_control.ms", "mac.backoffs", "mac.collisions",
	"network.enqueue_data.calls", "network.enqueue_data.ms", "network.drop_data.calls",
	"network.drops.congestion", "network.drops.expired", "network.drops.no-route", "network.drops.link-break",
	"traffic.generated", "packet.drain_released",
	"engine.self_share",
	"runtime.alloc_bytes_per_event", "runtime.allocs_per_event", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"cpu.sim", "cpu.mobility", "cpu.geom", "cpu.channel", "cpu.mac", "cpu.network", "cpu.routing",
	"cpu.traffic", "cpu.packet", "cpu.metrics", "cpu.timeseries", "cpu.obs", "cpu.math", "cpu.runtime",
	"trace.overhead_frac",
}

// print writes the human-readable record, then the JSON result line.
func (r *report) print(w io.Writer, traced bool) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "metric %-34s %16.6f %s (%d of %d ops)\n", "ops_failed_frac", r.failedFrac(), "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, name := range want {
		m, ok := r.lookup(name)
		if !ok {
			r.problems = append(r.problems, "metric "+name+" was not measured")
			fmt.Fprintf(w, "FAIL metric %s was not measured\n", name)
			continue
		}
		out[name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, out})
	fmt.Fprintf(w, "%s\n", line)
}

func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// quantile is the linearly interpolated q-quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailLabel names the highest percentile among p90, p75 and p50 that
// still has at least ten samples beyond it, for the record line.
func tailLabel(n int) string {
	switch {
	case n >= 100:
		return "p90"
	case n >= 40:
		return "p75"
	default:
		return "p50"
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
