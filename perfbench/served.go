package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rica"
	"rica/internal/experiment"
	"rica/internal/scenario"
	"rica/internal/serve"
)

// The served grid: a small job, so that admission, persistence, worker
// spawn, fsyncs, export and fetch — not the simulation — dominate.
const (
	servedHorizon = 10 * time.Second
	servedSeeds   = 8 // job seeds cycle over seed, seed+1, …, seed+7
	servedClients = 2 // closed-loop clients, each with one connection
	daemonSpawns  = setupReps
)

var (
	servedScenarios = []string{"chain-10", "grid-8x8"}
	servedProtocols = []experiment.Protocol{experiment.RICA, experiment.AODV}
)

func servedSpec(seed int64) serve.JobSpec {
	var protos []string
	for _, p := range servedProtocols {
		protos = append(protos, p.String())
	}
	return serve.JobSpec{
		Scenarios: servedScenarios, Protocols: protos, Trials: 1,
		Seed: seed, DurationS: servedHorizon.Seconds(),
	}
}

// servedBatch is the job's grid as rica.RunBatch takes it.
func servedBatch(seed int64) rica.BatchConfig {
	cfg := rica.BatchConfig{Protocols: servedProtocols, Trials: 1, BaseSeed: seed}
	for _, name := range servedScenarios {
		s := mustScenario(name)
		s.Duration = scenario.Duration(servedHorizon)
		cfg.Scenarios = append(cfg.Scenarios, s)
	}
	return cfg
}

// servedCells is the job's grid as individual cells, in RunBatch order.
func servedCells(seeds []int64) []cellSpec {
	var cells []cellSpec
	for _, seed := range seeds {
		for _, s := range servedBatch(seed).Scenarios {
			for _, p := range servedProtocols {
				cells = append(cells, mustCell(s, p, seed, false))
			}
		}
	}
	return cells
}

// reference is the in-process export a served job must return byte for
// byte, with what it simulated.
type reference struct {
	export []byte
	events uint64
	cells  int
}

// references runs every job of the seed cycle in-process and returns the
// expected exports and the wall time per cell.
func references(seeds []int64) (map[int64]reference, time.Duration, error) {
	refs := map[int64]reference{}
	var wall time.Duration
	cells := 0
	for _, seed := range seeds {
		t0 := time.Now()
		res, err := rica.RunBatch(servedBatch(seed))
		wall += time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, 0, err
		}
		ref := reference{export: buf.Bytes(), cells: len(res.Cells)}
		for _, c := range res.Cells {
			if c.Poisoned() {
				return nil, 0, fmt.Errorf("reference cell %s/%s seed %d: %s", c.Scenario, c.Protocol, c.Seed, c.Error)
			}
			ref.events += c.Events
		}
		refs[seed] = ref
		cells += len(res.Cells)
	}
	return refs, wall / time.Duration(max(cells, 1)), nil
}

// runServedGrid drives `ricasim serve` with its default flags over HTTP:
// two closed-loop clients each submit a job, follow its event stream to
// the end, confirm its state and fetch its result. One op is one job,
// from submit to the last result byte. The queue wait is real: two
// clients share one active slot. The peak resident set is the served
// system's: the daemon's or any of its workers', not the client's.
func runServedGrid(o opts) *report {
	r := &report{}
	seeds := make([]int64, servedSeeds)
	for i := range seeds {
		seeds[i] = o.seed + int64(i)
	}
	bin := filepath.Join(o.build, "ricasim")
	refs, cellWall, err := references(seeds)
	if err != nil {
		r.problem("reference batch: %v", err)
		return r
	}
	// Set-up is the daemon's spawn-to-ready time, median of several
	// spawns; the last daemon serves the run. The traced run spawns once.
	spawnCount := daemonSpawns
	if o.trace {
		spawnCount = 1
	}
	var d *daemon
	var spawns []float64
	unhandled := 0
	stop := func() {
		if err := d.stop(); err != nil {
			r.problem("daemon stop: %v", err)
		}
		if d.unhandledTerm {
			unhandled++
		}
	}
	for i := 0; i < spawnCount; i++ {
		if d != nil {
			stop()
		}
		var took time.Duration
		d, took, err = spawnDaemon(bin, filepath.Join(o.build, "serve", fmt.Sprintf("%d-%d", os.Getpid(), i)))
		if err != nil {
			r.problem("daemon: %v", err)
			return r
		}
		spawns = append(spawns, took.Seconds())
	}

	if o.trace {
		layerPasses(o, servedCells(seeds), 0, r)
		r.add("batch.cell_ms", "ms", ms(cellWall))
	}

	jobs, elapsed := closedLoop(newHTTPClient(), d.base, seeds, refs, o.seconds, r)
	stop()
	r.note("daemons started %d, killed by SIGTERM before their handler was installed %d",
		spawnCount, unhandled)

	var done []jobRun
	for _, j := range jobs {
		if j.err == nil {
			done = append(done, j)
		}
	}
	var ds digest
	for _, s := range seeds {
		ds.add(string(refs[s].export))
	}
	r.note("jobs %d (%s has ten beyond it); digest of the %d reference exports %s",
		len(done), tailLabel(len(done)), len(seeds), &ds)
	if !o.trace {
		w := servedWindows(done, refs)
		r.add("setup_s", "s", quantile(spawns, 0.5))
		r.add("sim_speed", "sim-s/s", quantile(w.simSpeed, 0.5))
		r.add("events_per_s", "1/s", quantile(w.eventsPerS, 0.5))
		r.add("peak_rss_mb", "MiB", float64(d.maxRSSKiB)/1024)
		r.add("op_p50_ms", "ms", quantile(w.p50, 0.5))
		r.add("op_p90_ms", "ms", quantile(w.p90, 0.5))
		// The served names: job_p50/p90_ms are op_p50/p90_ms, and
		// jobs_per_s is carried in sim_speed, as every job simulates the
		// same 40 s.
		r.note("served names: job_p50_ms = op_p50_ms, job_p90_ms = op_p90_ms; jobs_per_s %.4g 1/s",
			quantile(w.jobsPerS, 0.5))
		r.note("served windows %d: job p90 by window %.4g ms over the whole run %.4g ms, %.1f s",
			len(w.p90), w.p90, quantile(w.all, 0.9), elapsed.Seconds())
		return r
	}
	addServeMetrics(r, jobs, cellWall*time.Duration(len(servedScenarios)*len(servedProtocols)))
	return r
}

// windowStats are the served end-to-end figures of each window.
type windowStats struct {
	p50, p90, jobsPerS, simSpeed, eventsPerS []float64
	all                                      []float64 // every job's latency, ms
}

// servedWindows cuts the completed jobs, in completion order, into
// windows of at least 100 (so a window's p90 has ten samples beyond it)
// and measures each; the run reports the median window, so a burst of
// contention from other tenants of the machine moves one window, not
// the run.
func servedWindows(done []jobRun, refs map[int64]reference) windowStats {
	var w windowStats
	sort.Slice(done, func(a, b int) bool { return done[a].doneAt < done[b].doneAt })
	n := max(1, len(done)/100)
	var from time.Duration
	for i := 0; i < n && len(done) > 0; i++ {
		part := done[i*len(done)/n : (i+1)*len(done)/n]
		to := part[len(part)-1].doneAt
		span := (to - from).Seconds()
		from = to
		var totals []float64
		var simS float64
		var events uint64
		for _, j := range part {
			totals = append(totals, ms(j.total))
			simS += float64(refs[j.seed].cells) * servedHorizon.Seconds()
			events += refs[j.seed].events
		}
		w.all = append(w.all, totals...)
		w.p50 = append(w.p50, quantile(totals, 0.5))
		w.p90 = append(w.p90, quantile(totals, 0.9))
		w.jobsPerS = append(w.jobsPerS, float64(len(part))/span)
		w.simSpeed = append(w.simSpeed, simS/span)
		w.eventsPerS = append(w.eventsPerS, float64(events)/span)
	}
	return w
}

// addServeMetrics reports the per-phase medians, on the client's clock.
func addServeMetrics(r *report, jobs []jobRun, gridCompute time.Duration) {
	phase := func(get func(jobRun) time.Duration) float64 {
		var xs []float64
		for _, j := range jobs {
			if d := get(j); j.err == nil && d >= 0 {
				xs = append(xs, ms(d))
			}
		}
		return quantile(xs, 0.5)
	}
	r.add("serve.submit_ms", "ms", phase(func(j jobRun) time.Duration { return j.submit }))
	r.add("serve.queue_wait_ms", "ms", phase(func(j jobRun) time.Duration { return j.queue }))
	worker := phase(func(j jobRun) time.Duration { return j.worker })
	r.add("serve.worker_ms", "ms", worker)
	r.add("serve.finalize_ms", "ms", phase(func(j jobRun) time.Duration { return j.finalize }))
	r.add("serve.status_ms", "ms", phase(func(j jobRun) time.Duration { return j.status }))
	r.add("serve.fetch_ms", "ms", phase(func(j jobRun) time.Duration { return j.fetch }))
	r.add("serve.overhead_ms", "ms", worker-ms(gridCompute))
	var attempts, restarts, rejected, truncated int
	for _, j := range jobs {
		attempts += j.attempts
		restarts += j.restarts
		if j.rejected {
			rejected++
		}
		if j.truncated {
			truncated++
		}
	}
	r.add("serve.attempts", "count", float64(attempts))
	r.add("serve.restarts", "count", float64(restarts))
	r.add("serve.rejected", "count", float64(rejected))
	r.add("serve.stream_truncated", "count", float64(truncated))
}

// daemon is one `ricasim serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	logged chan struct{} // closed once stderr reaches EOF
	// unhandledTerm records that SIGTERM killed the daemon outright: it
	// answers /readyz before it installs its signal handler, so a stop
	// right after start can beat the handler. Harmless for an idle
	// daemon; counted, not failed.
	unhandledTerm bool
	// maxRSSKiB is the largest resident set of the daemon or of any
	// worker it waited for, known once the daemon has exited.
	maxRSSKiB int64
}

var controlPlaneRE = regexp.MustCompile(`control plane on (http://\S+)`)

// spawnDaemon starts the daemon with its default flags (a free local
// port and a private data directory are deployment settings) and returns
// the time from spawn until /readyz answers 200.
func spawnDaemon(bin, dir string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-data", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, dir: dir, logged: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			if m := controlPlaneRE.FindStringSubmatch(sc.Text()); m != nil && !announced {
				announced = true
				found <- m[1]
			}
		}
	}()
	select {
	case d.base = <-found:
	case <-d.logged:
		_ = d.stop()
		return nil, 0, errors.New("the daemon exited before serving")
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, 0, errors.New("the daemon did not announce its address")
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, 0, errors.New("the daemon never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop drains the daemon with SIGTERM, as an operator would, waits for
// it (killing it after 30 s) and removes its data directory.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("the daemon ignored SIGTERM: %v", <-done)
	}
	<-d.logged
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.maxRSSKiB = ru.Maxrss // wait4 folds in the daemon's waited-for workers
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			d.unhandledTerm, err = true, nil
		}
	}
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: servedClients, MaxIdleConnsPerHost: servedClients},
	}
}

// jobRun is one served job, timed on the client's clock: the job's own
// timestamps are whole seconds, too coarse for ~100 ms jobs.
type jobRun struct {
	seed                int64
	doneAt              time.Duration // when the job finished, from the start of the loop
	total               time.Duration // submit sent → last result byte
	submit              time.Duration // POST round trip
	queue               time.Duration // POST returned → "started" event read
	worker              time.Duration // "started" → "worker-exit"; -1 if the stream was cut first
	finalize            time.Duration // "worker-exit" → "done" or stream end; -1 likewise
	status, fetch       time.Duration // GET /jobs/{id} and /result round trips
	attempts, restarts  int
	rejected, truncated bool
	err                 error
}

// closedLoop runs servedClients clients until dur has passed, each
// running at least one job; a client's next job starts when its
// previous one is fetched.
func closedLoop(c *http.Client, base string, seeds []int64, refs map[int64]reference, dur time.Duration, r *report) ([]jobRun, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		jobs []jobRun
		wg   sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < servedClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < dur; first = false {
				seed := seeds[int(next.Add(1)-1)%len(seeds)]
				j := runJob(c, base, seed, refs[seed].export)
				j.doneAt = time.Since(start)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.problem("job seed %d: %v", j.seed, j.err)
		}
	}
	return jobs, elapsed
}

// runJob submits one job, follows it to completion and checks its
// result against want. A refused submission (429, 503), a job that ends
// in any state but done, or a result that differs from want by one byte
// fails the job. A follow stream that closes without the terminal event
// is counted, and the job's state is then taken from GET /jobs/{id}.
func runJob(c *http.Client, base string, seed int64, want []byte) (j jobRun) {
	j.seed = seed
	t0 := time.Now()
	body, _ := json.Marshal(servedSpec(seed))
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tSubmitted := time.Now()
	j.submit = tSubmitted.Sub(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		j.rejected = true
		j.err = fmt.Errorf("submission refused with %d", resp.StatusCode)
		return j
	case resp.StatusCode != http.StatusAccepted || err != nil:
		j.err = fmt.Errorf("submission answered %d: %v", resp.StatusCode, err)
		return j
	}
	jobURL := base + "/jobs/" + st.ID

	var tStarted, tExit, tDone time.Time
	resp, err = c.Get(jobURL + "/events?follow=1")
	if err != nil {
		j.err = err
		return j
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			j.err = fmt.Errorf("event stream: %v", err)
			return j
		}
		switch ev.Type {
		case "started":
			tStarted = time.Now()
		case "worker-exit":
			tExit = time.Now()
		case "done":
			tDone = time.Now()
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		j.err = fmt.Errorf("event stream: %v", err)
		return j
	}
	if tDone.IsZero() {
		j.truncated = true
		tDone = time.Now()
	}

	s := time.Now()
	resp, err = c.Get(jobURL)
	if err != nil {
		j.err = err
		return j
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.status = time.Since(s)
	if err != nil || st.State != serve.StateDone {
		j.err = fmt.Errorf("job %s ended %s (%s): %v", st.ID, st.State, st.Reason, err)
		return j
	}
	j.attempts, j.restarts = st.Attempts, st.Restarts

	s = time.Now()
	resp, err = c.Get(jobURL + "/result")
	if err != nil {
		j.err = err
		return j
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.fetch = time.Since(s)
	j.total = time.Since(t0)
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		j.err = fmt.Errorf("result fetch answered %d: %v", resp.StatusCode, err)
	case !bytes.Equal(got, want):
		j.err = fmt.Errorf("job %s result differs from the in-process RunBatch export", st.ID)
	}
	if tStarted.IsZero() {
		j.err = errors.Join(j.err, fmt.Errorf("job %s streamed no started event", st.ID))
		return j
	}
	j.queue = tStarted.Sub(tSubmitted)
	j.worker, j.finalize = -1, -1 // unknown when the stream was cut before worker-exit
	if !tExit.IsZero() {
		j.worker = tExit.Sub(tStarted)
		j.finalize = tDone.Sub(tExit)
	}
	return j
}
