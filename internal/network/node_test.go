package network

import (
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/geom"
	"rica/internal/mac"
	"rica/internal/packet"
	"rica/internal/sim"
)

// fixedPos pins a terminal to a point.
type fixedPos geom.Point

func (p fixedPos) Position(time.Duration) geom.Point { return geom.Point(p) }

// recorder captures data lifecycle events.
type recorder struct {
	generated int
	delivered []*packet.Packet
	dropped   map[DropReason]int
}

func newRecorder() *recorder { return &recorder{dropped: make(map[DropReason]int)} }

func (r *recorder) DataGenerated(*packet.Packet, time.Duration) { r.generated++ }
func (r *recorder) DataDelivered(p *packet.Packet, _ time.Duration) {
	r.delivered = append(r.delivered, p)
}
func (r *recorder) DataDropped(_ *packet.Packet, reason DropReason, _ time.Duration) {
	r.dropped[reason]++
}

// staticAgent forwards data along a fixed next-hop table.
type staticAgent struct {
	env      Env
	next     map[int]int // dst -> next hop
	controls []*packet.Packet
	failures []int
}

func (a *staticAgent) Start(time.Duration) {}
func (a *staticAgent) HandleControl(p *packet.Packet, _ time.Duration) {
	a.controls = append(a.controls, p)
}
func (a *staticAgent) RouteData(p *packet.Packet, _ time.Duration) {
	next, ok := a.next[p.Dst]
	if !ok {
		a.env.DropData(p, DropNoRoute)
		return
	}
	a.env.EnqueueData(p, next)
}
func (a *staticAgent) DataArrived(*packet.Packet, time.Duration) {}
func (a *staticAgent) LinkFailed(next int, p *packet.Packet, _ time.Duration) {
	a.failures = append(a.failures, next)
	a.env.DropData(p, DropLinkBreak)
}

// chainWorld builds terminals on a line, 150 m apart (adjacent terminals
// in range, non-adjacent ones not), with static routes between all pairs
// through the intermediates.
type chainWorld struct {
	kernel *sim.Kernel
	nodes  []*Node
	agents []*staticAgent
	rec    *recorder
}

func newChainWorld(t *testing.T, n int, cfg NodeConfig) *chainWorld {
	t.Helper()
	kernel := sim.NewKernel()
	streams := sim.NewStreams(7)
	pos := make([]channel.Positioner, n)
	for i := range pos {
		pos[i] = fixedPos{X: float64(i) * 150, Y: 0}
	}
	model := channel.NewModel(channel.DefaultConfig(), streams, pos)
	common := mac.NewCommonChannel(kernel, model, streams.Stream(1000))
	data := mac.NewDataPlane(kernel, model)
	rec := newRecorder()
	w := &chainWorld{kernel: kernel, rec: rec}
	for i := 0; i < n; i++ {
		nd := NewNode(i, kernel, common, data, model, streams.Stream(2000+uint64(i)), rec, cfg)
		ag := &staticAgent{env: nd, next: map[int]int{}}
		for dst := 0; dst < n; dst++ {
			if dst > i {
				ag.next[dst] = i + 1
			} else if dst < i {
				ag.next[dst] = i - 1
			}
		}
		nd.SetAgent(ag)
		w.nodes = append(w.nodes, nd)
		w.agents = append(w.agents, ag)
	}
	for _, nd := range w.nodes {
		nd.Start()
	}
	return w
}

var nextPacketID uint64

func mkData(src, dst int, at time.Duration) *packet.Packet {
	nextPacketID++
	return &packet.Packet{
		Type: packet.TypeData, ID: nextPacketID, Src: src, Dst: dst,
		Size: packet.SizeData, CreatedAt: at,
	}
}

func TestMultiHopDelivery(t *testing.T) {
	w := newChainWorld(t, 4, DefaultNodeConfig())
	pkt := mkData(0, 3, 0)
	w.nodes[0].OriginateData(pkt, 0)
	w.kernel.Run(5 * time.Second)
	if len(w.rec.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1 (drops: %v)", len(w.rec.delivered), w.rec.dropped)
	}
	got := w.rec.delivered[0]
	if got.TraversedHops != 3 {
		t.Errorf("TraversedHops = %d, want 3", got.TraversedHops)
	}
	if got.TraversedBps < 3*50_000 || got.TraversedBps > 3*250_000 {
		t.Errorf("TraversedBps = %v outside plausible bounds", got.TraversedBps)
	}
	if w.rec.generated != 1 {
		t.Errorf("generated = %d, want 1", w.rec.generated)
	}
}

func TestSelfFlowDeliversImmediately(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	w.nodes[0].OriginateData(mkData(0, 0, 0), 0)
	if len(w.rec.delivered) != 1 {
		t.Fatalf("self flow not delivered")
	}
}

func TestNoRouteDrops(t *testing.T) {
	w := newChainWorld(t, 3, DefaultNodeConfig())
	w.agents[0].next = map[int]int{} // wipe node 0's table
	w.nodes[0].OriginateData(mkData(0, 2, 0), 0)
	w.kernel.Run(time.Second)
	if w.rec.dropped[DropNoRoute] != 1 {
		t.Fatalf("drops = %v, want one no-route", w.rec.dropped)
	}
}

func TestBufferOverflowDropsCongestion(t *testing.T) {
	cfg := NodeConfig{BufferCap: 10, BufferLifetime: 3 * time.Second}
	w := newChainWorld(t, 2, cfg)
	// Inject a burst far faster than one link can serve. Capacity is 10;
	// one more is in flight, so a burst of 30 must overflow.
	for i := 0; i < 30; i++ {
		w.nodes[0].OriginateData(mkData(0, 1, 0), 0)
	}
	w.kernel.Run(10 * time.Second)
	if w.rec.dropped[DropCongestion] == 0 {
		t.Fatalf("no congestion drops after 30-packet burst into cap-10 buffer: %v", w.rec.dropped)
	}
	if len(w.rec.delivered)+w.rec.dropped[DropCongestion]+w.rec.dropped[DropExpired] != 30 {
		t.Fatalf("conservation violated: delivered %d + drops %v != 30",
			len(w.rec.delivered), w.rec.dropped)
	}
}

func TestBufferLifetimeExpiry(t *testing.T) {
	// Even the best link serves a 512 B packet in ~17 ms; with a 100 ms
	// lifetime a burst of 10 cannot all leave the buffer in time.
	cfg := NodeConfig{BufferCap: 10, BufferLifetime: 100 * time.Millisecond}
	w := newChainWorld(t, 2, cfg)
	for i := 0; i < 10; i++ {
		w.nodes[0].OriginateData(mkData(0, 1, 0), 0)
	}
	w.kernel.Run(10 * time.Second)
	if w.rec.dropped[DropExpired] == 0 {
		t.Fatalf("no expiry drops with 200 ms lifetime: delivered %d, drops %v",
			len(w.rec.delivered), w.rec.dropped)
	}
}

func TestLinkBreakNotifiesAgent(t *testing.T) {
	// Node 1 placed out of range: the first transmission fails.
	kernel := sim.NewKernel()
	streams := sim.NewStreams(3)
	model := channel.NewModel(channel.DefaultConfig(), streams,
		[]channel.Positioner{fixedPos{X: 0, Y: 0}, fixedPos{X: 500, Y: 0}})
	common := mac.NewCommonChannel(kernel, model, streams.Stream(1))
	data := mac.NewDataPlane(kernel, model)
	rec := newRecorder()
	nd := NewNode(0, kernel, common, data, model, streams.Stream(2), rec, DefaultNodeConfig())
	ag := &staticAgent{env: nd, next: map[int]int{1: 1}}
	nd.SetAgent(ag)
	nd2 := NewNode(1, kernel, common, data, model, streams.Stream(4), rec, DefaultNodeConfig())
	nd2.SetAgent(&staticAgent{env: nd2, next: map[int]int{}})
	nd.Start()
	nd2.Start()

	nd.OriginateData(mkData(0, 1, 0), 0)
	kernel.Run(time.Second)
	if len(ag.failures) != 1 || ag.failures[0] != 1 {
		t.Fatalf("LinkFailed calls = %v, want [1]", ag.failures)
	}
	if rec.dropped[DropLinkBreak] != 1 {
		t.Fatalf("drops = %v, want one link-break", rec.dropped)
	}
}

func TestControlPacketsReachAgent(t *testing.T) {
	w := newChainWorld(t, 3, DefaultNodeConfig())
	w.nodes[0].SendControl(&packet.Packet{
		Type: packet.TypeRREQ, Src: 0, Dst: 2, To: packet.Broadcast, Size: packet.SizeRREQ,
	})
	w.kernel.Run(time.Second)
	if len(w.agents[1].controls) != 1 {
		t.Fatalf("neighbour agent received %d control packets, want 1", len(w.agents[1].controls))
	}
	if len(w.agents[2].controls) != 0 {
		t.Fatalf("distant agent received a control packet it cannot hear")
	}
	if got := w.agents[1].controls[0]; got.From != 0 {
		t.Fatalf("control From = %d, want stamped sender 0", got.From)
	}
}

func TestEnqueueTowardSelfPanics(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue toward self did not panic")
		}
	}()
	w.nodes[0].EnqueueData(mkData(0, 1, 0), 0)
}

func TestForeignSrcPanics(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("foreign Src did not panic")
		}
	}()
	w.nodes[0].OriginateData(mkData(1, 0, 0), 0)
}

func TestQueueLen(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	if w.nodes[0].QueueLen(1) != 0 {
		t.Fatal("fresh queue not empty")
	}
	for i := 0; i < 5; i++ {
		w.nodes[0].OriginateData(mkData(0, 1, 0), 0)
	}
	// One packet is in flight (popped on completion), the rest queued.
	if got := w.nodes[0].QueueLen(1); got != 5 {
		t.Fatalf("QueueLen = %d, want 5 (head in flight stays queued)", got)
	}
	w.kernel.Run(5 * time.Second)
	if got := w.nodes[0].QueueLen(1); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

func TestLinkQueueFIFOAndCompaction(t *testing.T) {
	var q linkQueue
	for i := 0; i < 500; i++ {
		q.push(queued{pkt: &packet.Packet{ID: uint64(i)}})
	}
	for i := 0; i < 500; i++ {
		e, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if e.pkt.ID != uint64(i) {
			t.Fatalf("pop %d returned packet %d; FIFO violated", i, e.pkt.ID)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestDeliveredPacketsOrderPreservedPerLink(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	for i := 0; i < 8; i++ {
		w.nodes[0].OriginateData(mkData(0, 1, 0), 0)
	}
	w.kernel.Run(10 * time.Second)
	if len(w.rec.delivered) != 8 {
		t.Fatalf("delivered %d, want 8", len(w.rec.delivered))
	}
	for i := 1; i < len(w.rec.delivered); i++ {
		if w.rec.delivered[i].ID < w.rec.delivered[i-1].ID {
			t.Fatal("per-link FIFO order violated in delivery")
		}
	}
}

// deliveryHook is a recorder that also runs fn on every delivery.
type deliveryHook struct {
	*recorder
	fn func(*packet.Packet, time.Duration)
}

func (r deliveryHook) DataDelivered(p *packet.Packet, now time.Duration) {
	r.recorder.DataDelivered(p, now)
	r.fn(p, now)
}

// TestExportQueuesAfterHandOffRelease is the regression test for
// checkpoint snapshots diverging only when worlds run concurrently: while
// the per-hop ACK airs, the sender's busy queue head still points at the
// packet the receiver has delivered and released — a record the
// process-global pool may already have handed to another run. The export
// must report the packet as it was enqueued, not whatever the record now
// holds.
func TestExportQueuesAfterHandOffRelease(t *testing.T) {
	w := newChainWorld(t, 2, DefaultNodeConfig())
	var during []QueueState
	hook := deliveryHook{recorder: w.rec, fn: func(_ *packet.Packet, now time.Duration) {
		// Just after the destination released the packet, inside the ACK
		// airtime: another run checks records out of the shared pool.
		w.kernel.Schedule(time.Microsecond, func(time.Duration) {
			for i := 0; i < 4; i++ {
				other := packet.Get()
				other.ID = 999
				defer other.Release()
			}
			during = w.nodes[0].ExportQueues()
		})
	}}
	w.nodes[0].rec, w.nodes[1].rec = hook, hook

	pkt := packet.Get()
	pkt.Type, pkt.ID, pkt.Src, pkt.Dst, pkt.Size = packet.TypeData, 77, 0, 1, packet.SizeData
	w.nodes[0].OriginateData(pkt, 0)
	w.kernel.Run(time.Second)

	if len(w.rec.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(w.rec.delivered))
	}
	want := QueueState{To: 1, Busy: true, Items: []QueuedPacket{{PktID: 77}}}
	if len(during) != 1 || during[0].To != want.To || during[0].Busy != want.Busy ||
		len(during[0].Items) != 1 || during[0].Items[0] != want.Items[0] {
		t.Fatalf("queue export inside the ACK window = %+v, want [%+v]", during, want)
	}
}
