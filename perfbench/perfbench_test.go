package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rica/internal/experiment"
	"rica/internal/scenario"
	"rica/internal/world"
)

// TestBenchmarkJSON keeps the metric lists the JSON line carries in step
// with the ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit string
		Bound      float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which has no runner", w.Name)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, the benchmark reports %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v, the benchmark reports %v", layer, perLayer)
	}

	// The units the benchmark reports must be the declared ones.
	e2eRun := measureInproc(opts{seed: 3, seconds: time.Nanosecond, build: t.TempDir()},
		func(seed int64) []cellSpec { return []cellSpec{tinyCell("chain-10", experiment.AODV, time.Second)} }, paperStep)
	for _, c := range []struct {
		r    *report
		want []declared
	}{{e2eRun, b.EndToEnd}, {traceSmall(t), b.PerLayer}} {
		for _, d := range c.want {
			if m, ok := c.r.lookup(d.Name); !ok || m.unit != d.Unit {
				t.Errorf("%s: reported unit %q (present %v), declared %q", d.Name, m.unit, ok, d.Unit)
			}
		}
	}
}

// tinyCell is a short static cell, cheap enough for unit tests.
func tinyCell(name string, p experiment.Protocol, horizon time.Duration) cellSpec {
	s := mustScenario(name)
	s.Duration = scenario.Duration(horizon)
	return mustCell(s, p, 3, false)
}

// TestPanickingCellCounts checks that a cell whose simulation panics is
// counted as a failed op instead of stopping the run.
func TestPanickingCellCounts(t *testing.T) {
	bad := tinyCell("chain-10", experiment.AODV, time.Second)
	bad.cfg.Outages = []world.Outage{{Node: 99, Until: time.Second}} // world.New panics on it
	pass := func(seed int64) []cellSpec {
		return []cellSpec{tinyCell("chain-10", experiment.AODV, time.Second), bad}
	}
	r := measureInproc(opts{seed: 3, seconds: time.Nanosecond, build: t.TempDir()}, pass, paperStep)
	if r.attempted != 2 || r.failed != 1 || r.failedFrac() != 0.5 || r.correct() {
		t.Fatalf("attempted %d failed %d frac %g correct %v, want 2, 1, 0.5, false",
			r.attempted, r.failed, r.failedFrac(), r.correct())
	}
}

// fakeDaemon serves the daemon's job API for one job whose result is
// result, whose submission answers submitCode, and whose follow stream
// carries events.
func fakeDaemon(t *testing.T, submitCode int, events []string, result string) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitCode)
		fmt.Fprint(w, `{"id":"j000001","state":"queued"}`)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		for i, e := range events {
			fmt.Fprintf(w, "{\"seq\":%d,\"type\":%q}\n", i, e)
		}
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"j000001","state":"done","attempts":1}`)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, result)
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

var fullStream = []string{"queued", "started", "progress", "worker-exit", "done"}

// TestServedFailuresCount checks that a refused submission and a result
// that differs from the reference by one byte each count as failed ops,
// and that a well-formed job does not.
func TestServedFailuresCount(t *testing.T) {
	const want = `{"cells":[]}`
	cases := []struct {
		name       string
		code       int
		result     string
		wantFailed bool
	}{
		{"good", http.StatusAccepted, want, false},
		{"corrupt", http.StatusAccepted, `{"cells":[ ]}`, true},
		{"refused", http.StatusTooManyRequests, want, true},
		{"draining", http.StatusServiceUnavailable, want, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := fakeDaemon(t, c.code, fullStream, c.result)
			refs := map[int64]reference{7: {export: []byte(want)}}
			r := &report{}
			jobs, _ := closedLoop(s.Client(), s.URL, []int64{7}, refs, time.Nanosecond, r)
			if r.attempted != servedClients || len(jobs) != servedClients {
				t.Fatalf("attempted %d jobs, want %d", r.attempted, servedClients)
			}
			if got := r.failedFrac() > 0; got != c.wantFailed {
				t.Fatalf("ops_failed_frac %g, want failed=%v (problems %v)", r.failedFrac(), c.wantFailed, r.problems)
			}
		})
	}
}

// TestTruncatedStreamIsCounted checks that a follow stream closing
// before the terminal event is counted, and the job confirmed through
// its status, not failed.
func TestTruncatedStreamIsCounted(t *testing.T) {
	s := fakeDaemon(t, http.StatusAccepted, []string{"queued", "started", "progress"}, "ok")
	j := runJob(s.Client(), s.URL, 1, []byte("ok"))
	if j.err != nil || !j.truncated || j.worker != -1 {
		t.Fatalf("err %v truncated %v worker %v, want nil, true, -1", j.err, j.truncated, j.worker)
	}
}

var (
	smallOnce   sync.Once
	smallReport *report
)

// TestServedWindows checks that the served figures are the median
// window's, so a burst confined to one window does not move them.
func TestServedWindows(t *testing.T) {
	refs := map[int64]reference{1: {cells: 4, events: 1000}}
	var jobs []jobRun
	for i := 0; i < 300; i++ {
		total := 100 * time.Millisecond
		if i < 100 {
			total = 500 * time.Millisecond // a burst over the first window
		}
		jobs = append(jobs, jobRun{seed: 1, doneAt: time.Duration(i+1) * 100 * time.Millisecond, total: total})
	}
	w := servedWindows(jobs, refs)
	if len(w.p90) != 3 || quantile(w.p90, 0.5) != 100 || quantile(w.p50, 0.5) != 100 {
		t.Fatalf("windows p90 %v p50 %v, want 3 windows with median 100 ms", w.p90, w.p50)
	}
	if got := quantile(w.jobsPerS, 0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("jobs/s %g, want 10", got)
	}
	if got := quantile(w.simSpeed, 0.5); math.Abs(got-400) > 1e-9 {
		t.Fatalf("sim speed %g, want 400 (4 cells × 10 s per job, 10 jobs/s)", got)
	}
}

// traceSmall runs the layer passes, once per test binary, over a few
// short cells that between them exercise on-demand, flooding and
// link-state agents on a mobile field.
func traceSmall(t *testing.T) *report {
	t.Helper()
	smallOnce.Do(func() {
		var cells []cellSpec
		for _, p := range []experiment.Protocol{experiment.RICA, experiment.AODV, experiment.LinkState} {
			cells = append(cells, tinyCell("paper-baseline", p, 4*time.Second))
		}
		smallReport = &report{}
		layerPasses(opts{build: t.TempDir()}, cells, 0, smallReport)
	})
	if !smallReport.correct() {
		t.Fatalf("traced pass failed: %v", smallReport.problems)
	}
	return smallReport
}

func get(t *testing.T, r *report, name string) float64 {
	t.Helper()
	m, ok := r.lookup(name)
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return m.value
}

// TestWrapperCountsAgreeWithObs checks the Env and agent wrappers'
// call counts against the simulator's own obs counters and drop tallies
// wherever the two measure related things.
func TestWrapperCountsAgreeWithObs(t *testing.T) {
	r := traceSmall(t)
	g := func(n string) float64 { return get(t, r, n) }
	checks := []struct {
		what string
		ok   bool
	}{
		{"timers fired ≤ timers the agents scheduled", g("routing.timer.calls") <= g("sim.schedule.calls")},
		{"agent schedules ≤ kernel schedules", g("sim.schedule.calls") <= g("sim.events_scheduled")},
		{"agent timers fired ≤ kernel events dispatched", g("routing.timer.calls") <= g("sim.events_dispatched")},
		{"every generated packet is routed at its source", g("routing.route_data.calls") >= g("traffic.generated")},
		{"no-route and link-break drops come only through Env.DropData",
			g("network.drops.no-route")+g("network.drops.link-break") <= g("network.drop_data.calls")},
		{"Env.DropData calls are recorded drops",
			g("network.drop_data.calls") <= g("network.drops.congestion")+g("network.drops.expired")+
				g("network.drops.no-route")+g("network.drops.link-break")},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s does not hold", c.what)
		}
	}
	if g("routing.timer.calls") == 0 || g("channel.link_class.calls") == 0 || g("mac.send_control.calls") == 0 {
		t.Error("a wrapper recorded no calls")
	}
}

// TestSelfTimesAddUp checks that the run phase's per-layer self times —
// routing callbacks, the Env calls below them, and the engine — add up
// to sim.run_ms, and that tracing cost no more than it reports.
func TestSelfTimesAddUp(t *testing.T) {
	r := traceSmall(t)
	g := func(n string) float64 { return get(t, r, n) }
	run := g("sim.run_ms")
	sum := g("engine.self_share")*run + g("routing.self_share")*run
	for _, n := range []string{"sim.schedule.ms", "mac.send_control.ms", "network.enqueue_data.ms",
		"network.drop_data.ms", "channel.link_class.ms"} {
		sum += g(n)
	}
	if math.Abs(sum-run) > 1e-6*run {
		t.Fatalf("self times sum to %.6f ms, sim.run_ms is %.6f", sum, run)
	}
	var byProto float64
	for _, p := range experiment.AllProtocols() {
		byProto += g("routing." + p.String() + ".self_ms")
	}
	if math.Abs(byProto-g("routing.self_share")*run) > 1e-6*run {
		t.Fatalf("per-protocol routing self times sum to %.6f ms, routing self is %.6f", byProto, g("routing.self_share")*run)
	}
	if g("trace.overhead_frac") <= -0.5 {
		t.Fatalf("trace.overhead_frac %g: the traced pass cannot be twice as fast as the untraced one", g("trace.overhead_frac"))
	}
}

// TestLayerOf pins the package-to-layer mapping of CPU profile symbols.
func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"rica/internal/mac.(*CommonChannel).complete":       "mac",
		"rica/internal/routing/rica.(*Agent).HandleControl": "routing",
		"rica/internal/routing.(*Table).Lookup":             "routing",
		"math.archExp":                                      "math",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"runtime.mallocgc":                                  "runtime",
		"main.(*tracer).end":                                "other",
		"rica/internal/world.New.func1":                     "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
	shares, err := layerShares([]byte(strings.Join([]string{
		"Showing nodes accounting for 100ms, 100% of 100ms total",
		"      flat  flat%   sum%        cum   cum%",
		"      60ms 60.00% 60.00%       60ms 60.00%  math.archExp",
		"      40ms 40.00%   100%      100ms   100%  rica/internal/mac.(*CommonChannel).complete (inline)",
	}, "\n")))
	if err != nil || shares["math"] != 0.6 || shares["mac"] != 0.4 {
		t.Fatalf("layerShares = %v, %v", shares, err)
	}
}
