package main

import (
	"time"

	"rica/internal/channel"
	"rica/internal/experiment"
	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/sim"
	"rica/internal/world"
)

// span names the layer boundary a traced call crossed.
type span uint8

const (
	spanWorldNew span = iota
	spanWorldStart
	spanSimRun // world.RunTo: the kernel dispatching events
	spanWorldFinish
	spanFactory // routing agent construction, inside world.New
	// Routing agent callbacks, made by the network layer and the kernel.
	spanAgentStart
	spanHandleControl
	spanRouteData
	spanDataArrived
	spanLinkFailed
	spanTimer // a callback the agent scheduled through its Env
	// Env calls the agent makes into the layers below it.
	spanSchedule // Env.Schedule and Env.ScheduleArg
	spanSendControl
	spanEnqueueData
	spanDropData
	spanLinkClass
	spanEmit // the batch telemetry sink
	numSpans
)

var spanNames = [numSpans]string{
	spanWorldNew: "world.new", spanWorldStart: "world.start", spanSimRun: "sim.run",
	spanWorldFinish: "world.finish", spanFactory: "routing.factory",
	spanAgentStart: "routing.start", spanHandleControl: "routing.handle_control",
	spanRouteData: "routing.route_data", spanDataArrived: "routing.data_arrived",
	spanLinkFailed: "routing.link_failed", spanTimer: "routing.timer",
	spanSchedule: "sim.schedule", spanSendControl: "mac.send_control",
	spanEnqueueData: "network.enqueue_data", spanDropData: "network.drop_data",
	spanLinkClass: "channel.link_class", spanEmit: "timeseries.emit",
}

// isRouting reports whether s is agent code (a callback into routing).
func (s span) isRouting() bool { return s >= spanAgentStart && s <= spanTimer }

// tracer records a span around every wrapped call. A span has a name, a
// start, an end and a parent (the span open below it on the stack).
// Spans are folded into per-name totals when they close instead of being
// retained: a paper-sweep pass opens millions of them, and a
// span's self time — its duration minus the time its child spans cover —
// is all the report needs.
// Everything runs on the simulation goroutine, so no locking.
type tracer struct {
	epoch time.Time
	stack []frame
	proto experiment.Protocol // the current cell's, for per-protocol totals

	calls [numSpans]int64
	total [numSpans]time.Duration // inclusive durations
	// runSelf is self time (duration minus child spans) of the spans
	// closed inside sim.run, so the per-layer shares of the run phase add
	// up to exactly one; protoSelf splits its routing part by protocol.
	runSelf   [numSpans]time.Duration
	protoSelf map[experiment.Protocol]time.Duration
	inRun     bool
}

type frame struct {
	name  span
	start time.Duration
	child time.Duration // time covered by closed child spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), protoSelf: map[experiment.Protocol]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span; a nil tracer records nothing, so untraced runs
// share the traced code path.
func (t *tracer) begin(s span) {
	if t == nil {
		return
	}
	if s == spanSimRun {
		t.inRun = true
	}
	t.stack = append(t.stack, frame{name: s, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.calls[f.name]++
	t.total[f.name] += d
	if t.inRun {
		self := d - f.child
		t.runSelf[f.name] += self
		if f.name.isRouting() {
			t.protoSelf[t.proto] += self
		}
	}
	if f.name == spanSimRun {
		t.inRun = false
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// reset drops spans left open by a cell that panicked.
func (t *tracer) reset() {
	if t != nil {
		t.stack = t.stack[:0]
		t.inRun = false
	}
}

// wrapFactory returns an AgentFactory whose agents, and the Envs they
// see, record spans into t.
func (t *tracer) wrapFactory(inner world.AgentFactory) world.AgentFactory {
	return func(env network.Env, w *world.World, id int) network.Agent {
		node, ok := env.(nodeEnv)
		if !ok {
			panic("perfbench: the world's Env no longer implements routing.TableObserver and routing.ObsProvider")
		}
		t.begin(spanFactory)
		a := inner(&tracedEnv{nodeEnv: node, t: t}, w, id)
		t.end()
		return &tracedAgent{inner: a, t: t}
	}
}

// nodeEnv is the surface network.Node offers its agent: the Env proper
// plus the two optional interfaces agents discover by type assertion.
// The wrapper must forward both, or the route-churn and obs counters
// silently stop.
type nodeEnv interface {
	network.Env
	routing.TableObserver
	routing.ObsProvider
}

// tracedEnv wraps an agent's Env. Methods it does not override are
// forwarded by embedding, including NoteRouteInstalled,
// NoteRouteInvalidated and Obs.
type tracedEnv struct {
	nodeEnv
	t *tracer
}

func (e *tracedEnv) Schedule(d time.Duration, fn func(now time.Duration)) sim.Timer {
	t := e.t
	t.begin(spanSchedule)
	tm := e.nodeEnv.Schedule(d, func(now time.Duration) {
		t.begin(spanTimer)
		fn(now)
		t.end()
	})
	t.end()
	return tm
}

func (e *tracedEnv) ScheduleArg(d time.Duration, fn sim.ArgHandler, a0, a1 int) sim.Timer {
	t := e.t
	t.begin(spanSchedule)
	tm := e.nodeEnv.ScheduleArg(d, func(now time.Duration, a0, a1 int) {
		t.begin(spanTimer)
		fn(now, a0, a1)
		t.end()
	}, a0, a1)
	t.end()
	return tm
}

func (e *tracedEnv) SendControl(pkt *packet.Packet) {
	e.t.begin(spanSendControl)
	e.nodeEnv.SendControl(pkt)
	e.t.end()
}

func (e *tracedEnv) EnqueueData(pkt *packet.Packet, next int) {
	e.t.begin(spanEnqueueData)
	e.nodeEnv.EnqueueData(pkt, next)
	e.t.end()
}

func (e *tracedEnv) DropData(pkt *packet.Packet, reason network.DropReason) {
	e.t.begin(spanDropData)
	e.nodeEnv.DropData(pkt, reason)
	e.t.end()
}

func (e *tracedEnv) LinkClass(j int) channel.Class {
	e.t.begin(spanLinkClass)
	c := e.nodeEnv.LinkClass(j)
	e.t.end()
	return c
}

// tracedAgent wraps a routing agent. It always offers network.Drainer
// and forwards to the inner agent when that agent parks packets;
// returning (0, 0) otherwise is exactly what the node does for an agent
// without the method.
type tracedAgent struct {
	inner network.Agent
	t     *tracer
}

func (a *tracedAgent) Start(now time.Duration) {
	a.t.begin(spanAgentStart)
	a.inner.Start(now)
	a.t.end()
}

func (a *tracedAgent) HandleControl(pkt *packet.Packet, now time.Duration) {
	a.t.begin(spanHandleControl)
	a.inner.HandleControl(pkt, now)
	a.t.end()
}

func (a *tracedAgent) RouteData(pkt *packet.Packet, now time.Duration) {
	a.t.begin(spanRouteData)
	a.inner.RouteData(pkt, now)
	a.t.end()
}

func (a *tracedAgent) DataArrived(pkt *packet.Packet, now time.Duration) {
	a.t.begin(spanDataArrived)
	a.inner.DataArrived(pkt, now)
	a.t.end()
}

func (a *tracedAgent) LinkFailed(next int, pkt *packet.Packet, now time.Duration) {
	a.t.begin(spanLinkFailed)
	a.inner.LinkFailed(next, pkt, now)
	a.t.end()
}

func (a *tracedAgent) DrainPending() (data, control int) {
	if d, ok := a.inner.(network.Drainer); ok {
		return d.DrainPending()
	}
	return 0, 0
}

var (
	_ network.Agent         = (*tracedAgent)(nil)
	_ network.Drainer       = (*tracedAgent)(nil)
	_ routing.TableObserver = (*tracedEnv)(nil)
	_ routing.ObsProvider   = (*tracedEnv)(nil)
)
