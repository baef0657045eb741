package routing

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/routing/routingtest"
)

func TestTableLookupInstallInvalidate(t *testing.T) {
	tb := NewTable(time.Second)
	if tb.Lookup(5, 0) != nil {
		t.Fatal("empty table returned an entry")
	}
	tb.Install(5, 2, 3.33, 2, 0)
	e := tb.Lookup(5, 100*time.Millisecond)
	if e == nil || e.Next != 2 || e.HopCount != 3.33 {
		t.Fatalf("Lookup = %+v", e)
	}
	tb.Invalidate(5)
	if tb.Lookup(5, 200*time.Millisecond) != nil {
		t.Fatal("invalidated entry still returned")
	}
	if tb.Peek(5) == nil {
		t.Fatal("Peek must still see invalidated entries")
	}
}

func TestTableIdleExpiry(t *testing.T) {
	tb := NewTable(time.Second)
	tb.Install(3, 1, 1, 1, 0)
	if tb.Lookup(3, 900*time.Millisecond) == nil {
		t.Fatal("entry expired too early")
	}
	if tb.Lookup(3, 1100*time.Millisecond) != nil {
		t.Fatal("idle entry not expired after 1 s (paper's route expiry)")
	}
	// Touch resets the idle clock.
	tb.Install(4, 1, 1, 1, 0)
	tb.Touch(4, 900*time.Millisecond)
	if tb.Lookup(4, 1800*time.Millisecond) == nil {
		t.Fatal("touched entry expired despite recent use")
	}
}

func TestTableZeroTimeoutNeverExpires(t *testing.T) {
	tb := NewTable(0)
	tb.Install(1, 2, 1, 1, 0)
	if tb.Lookup(1, time.Hour) == nil {
		t.Fatal("zero-timeout table expired an entry")
	}
}

func TestInvalidateNext(t *testing.T) {
	tb := NewTable(0)
	tb.Install(1, 9, 1, 1, 0)
	tb.Install(2, 9, 2, 2, 0)
	tb.Install(3, 7, 1, 1, 0)
	affected := tb.InvalidateNext(9)
	if len(affected) != 2 {
		t.Fatalf("affected = %v, want destinations 1 and 2", affected)
	}
	if tb.Lookup(1, 0) != nil || tb.Lookup(2, 0) != nil {
		t.Fatal("routes through dead neighbour still valid")
	}
	if tb.Lookup(3, 0) == nil {
		t.Fatal("unrelated route was invalidated")
	}
}

func TestHistoryFirstCopy(t *testing.T) {
	h := NewHistory()
	pkt := &packet.Packet{Type: packet.TypeRREQ, Src: 1, Dst: 2, BroadcastID: 1, From: 4, HopCount: 1.67, GeoHops: 1}
	rec, first := h.FirstCopy(pkt, time.Second)
	if !first {
		t.Fatal("first copy not recognized")
	}
	if rec.FirstFrom != 4 || rec.HopCount != 1.67 {
		t.Fatalf("record = %+v", rec)
	}
	dup := pkt.Clone()
	dup.From = 9
	dup.HopCount = 1.0
	rec2, first2 := h.FirstCopy(dup, 2*time.Second)
	if first2 {
		t.Fatal("duplicate treated as first copy")
	}
	if rec2.FirstFrom != 4 {
		t.Fatal("duplicate overwrote the reverse pointer")
	}
	if got, ok := h.Lookup(pkt.Key()); !ok || got != rec {
		t.Fatal("Lookup did not find the record")
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		j := Jitter(rng)
		if j < time.Millisecond || j >= RebroadcastJitter {
			t.Fatalf("jitter %v outside [1ms, %v)", j, RebroadcastJitter)
		}
	}
}

// envStub implements the slice of network.Env Pending needs.
type envStub struct {
	network.Env
	drops map[network.DropReason]int
}

func (e *envStub) DropData(_ *packet.Packet, r network.DropReason) { e.drops[r]++ }

func TestPendingFlushAndExpiry(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	old := &packet.Packet{ID: 1}
	fresh := &packet.Packet{ID: 2}
	p.Add(old, 0, env)
	p.Add(fresh, 2*time.Second, env)
	var flushed []uint64
	p.Flush(4*time.Second, env, func(pkt *packet.Packet) { flushed = append(flushed, pkt.ID) })
	if len(flushed) != 1 || flushed[0] != 2 {
		t.Fatalf("flushed %v, want just the fresh packet", flushed)
	}
	if env.drops[network.DropExpired] != 1 {
		t.Fatalf("drops = %v, want one expired", env.drops)
	}
	if p.Len() != 0 {
		t.Fatal("buffer not empty after flush")
	}
}

func TestPendingCapOverflow(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	for i := 0; i < PendingCap+5; i++ {
		p.Add(&packet.Packet{ID: uint64(i)}, 0, env)
	}
	if p.Len() != PendingCap {
		t.Fatalf("Len = %d, want cap %d", p.Len(), PendingCap)
	}
	if env.drops[network.DropCongestion] != 5 {
		t.Fatalf("drops = %v, want 5 congestion", env.drops)
	}
}

func TestPendingDropAll(t *testing.T) {
	env := &envStub{drops: map[network.DropReason]int{}}
	var p Pending
	for i := 0; i < 3; i++ {
		p.Add(&packet.Packet{ID: uint64(i)}, 0, env)
	}
	p.DropAll(env, network.DropNoRoute)
	if p.Len() != 0 || env.drops[network.DropNoRoute] != 3 {
		t.Fatalf("after DropAll: len %d drops %v", p.Len(), env.drops)
	}
}

// lookupAll asks g's demand-driven tree for every destination from src,
// in id order, and returns the answers — with the settled distances — as
// full-settle style arrays.
func lookupAll(g *Graph, src int) ([]int, []float64) {
	next := make([]int, g.N())
	dist := make([]float64, g.N())
	for dst := range next {
		next[dst] = g.NextHop(src, dst)
		dist[dst] = g.tree.dist[dst]
	}
	return next, dist
}

func TestDijkstraLineGraph(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1.67)
	g.SetEdge(2, 3, 5)
	next, dist := lookupAll(g, 0)
	if next[3] != 1 {
		t.Fatalf("next hop toward 3 = %d, want 1", next[3])
	}
	if want := 1 + 1.67 + 5; dist[3] != want {
		t.Fatalf("dist[3] = %v, want %v", dist[3], want)
	}
	if next[0] != -1 {
		t.Fatalf("next hop to self = %d, want -1", next[0])
	}
}

func TestDijkstraPrefersCheapLongPath(t *testing.T) {
	// Direct edge expensive (class D = 5), two-hop path cheap (1 + 1).
	g := NewGraph(3)
	g.SetEdge(0, 2, 5)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	next, dist := lookupAll(g, 0)
	if next[2] != 1 {
		t.Fatalf("next hop = %d, want detour via 1", next[2])
	}
	if dist[2] != 2 {
		t.Fatalf("dist = %v, want 2", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	// 2,3 disconnected.
	next, dist := lookupAll(g, 0)
	if next[2] != -1 || dist[2] < InfiniteHops {
		t.Fatalf("unreachable node: next %d dist %v", next[2], dist[2])
	}
}

func TestDijkstraEdgeRemoval(t *testing.T) {
	g := NewGraph(3)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	if next := g.NextHop(0, 2); next != 1 {
		t.Fatalf("next hop toward 2 = %d before removal, want 1", next)
	}
	g.RemoveEdge(1, 2)
	if next := g.NextHop(0, 2); next != -1 {
		t.Fatal("removed edge still routable")
	}
	if _, ok := g.Edge(1, 2); ok {
		t.Fatal("Edge reports removed edge")
	}
}

func TestDijkstraClearNode(t *testing.T) {
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 1)
	g.SetEdge(1, 3, 1)
	g.ClearNode(1)
	next, _ := lookupAll(g, 0)
	for _, dst := range []int{1, 2, 3} {
		if next[dst] != -1 {
			t.Fatalf("route to %d survived ClearNode(1)", dst)
		}
	}
}

func TestDijkstraDeterministic(t *testing.T) {
	// Equal-cost diamond: 0-1-3 and 0-2-3 both cost 2. Repeated runs must
	// pick the same next hop.
	g := NewGraph(4)
	g.SetEdge(0, 1, 1)
	g.SetEdge(0, 2, 1)
	g.SetEdge(1, 3, 1)
	g.SetEdge(2, 3, 1)
	first := g.NextHop(0, 3)
	for i := 0; i < 50; i++ {
		g.ClearNode(3)
		g.SetEdge(1, 3, 1)
		g.SetEdge(2, 3, 1)
		if next := g.NextHop(0, 3); next != first {
			t.Fatal("equal-cost tie-break is nondeterministic")
		}
	}
	if first != 1 {
		t.Fatalf("tie-break picked %d, want lowest id 1", first)
	}
}

// TestDijkstraMatchesBruteForce cross-checks optimal distances against
// exhaustive path enumeration on small random graphs.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 7
		g := NewGraph(n)
		weights := []float64{1, 1.67, 3.33, 5}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.SetEdge(i, j, weights[rng.Intn(len(weights))])
				}
			}
		}
		_, dist := lookupAll(g, 0)
		brute := bruteDistances(g, 0)
		for v := 0; v < n; v++ {
			if diff := dist[v] - brute[v]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteDistances is Bellman-Ford style relaxation to convergence.
func bruteDistances(g *Graph, src int) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = InfiniteHops
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if w, ok := g.Edge(u, v); ok && dist[u]+w < dist[v] {
					dist[v] = dist[u] + w
				}
			}
		}
	}
	return dist
}

// ClearNode removes every edge incident to u: with SetEdge, the reference
// edit ReplaceLinks is checked against.
func (g *Graph) ClearNode(u int) {
	for _, e := range g.adj[u] {
		g.dropHalf(int(e.to), u)
	}
	if len(g.adj[u]) > 0 {
		g.version++
	}
	g.adj[u] = g.adj[u][:0]
}

// ShortestPaths is the full-settle reference oracle for NextHop: a plain
// O(N²) Dijkstra from src that settles every reachable terminal in the
// same (distance, id) order and relaxes edges in neighbour-id order. It
// returns, for every terminal, the first hop on a shortest path from src
// (-1 if unreachable or src itself) and the total distance, appended to
// next and dist.
func (g *Graph) ShortestPaths(src int, next []int, dist []float64) ([]int, []float64) {
	next, dist = next[:0], dist[:0]
	for i := 0; i < g.n; i++ {
		next = append(next, -1)
		dist = append(dist, InfiniteHops)
	}
	dist[src] = 0
	done := make([]bool, g.n)
	for {
		u := -1
		for v := 0; v < g.n; v++ {
			if !done[v] && dist[v] < InfiniteHops && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return next, dist
		}
		done[u] = true
		for _, e := range g.adj[u] {
			v := int(e.to)
			if nd := dist[u] + e.w; nd < dist[v] {
				dist[v] = nd
				if u == src {
					next[v] = v
				} else {
					next[v] = next[u]
				}
			}
		}
	}
}

// paperCosts are the four CSI hop distances of the paper's classes A–D;
// so few distinct weights make equal-cost ties dense.
var paperCosts = []float64{1, 1.67, 3.33, 5}

// edgeLists deep-copies g's adjacency, for before/after comparisons.
func edgeLists(g *Graph) [][]gedge {
	out := make([][]gedge, g.N())
	for u := range out {
		out[u] = append([]gedge(nil), g.adj[u]...)
	}
	return out
}

func sameEdgeLists(a, b [][]gedge) bool {
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

// randomLinks draws an advertisement for u as the diff-apply edits see
// them: sorted by neighbour, with duplicate neighbours, self-links and
// non-positive or ≥InfiniteHops costs mixed in.
func randomLinks(rng *rand.Rand, n, u int) []Link {
	var links []Link
	for v := 0; v < n; v++ {
		if rng.Intn(3) != 0 {
			continue
		}
		for k := 1 + rng.Intn(3)/2; k > 0; k-- {
			c := paperCosts[rng.Intn(len(paperCosts))]
			switch rng.Intn(12) {
			case 0:
				c = 0
			case 1:
				c = -1
			case 2:
				c = InfiniteHops
			}
			links = append(links, Link{Neighbor: v, Cost: c})
		}
	}
	if rng.Intn(4) == 0 {
		links = append(links, Link{Neighbor: u, Cost: 1})
		sort.SliceStable(links, func(i, j int) bool { return links[i].Neighbor < links[j].Neighbor })
	}
	return links
}

// TestNextHopMatchesFullSettle is the property test for the demand-driven
// tree: on random graphs of 2–64 terminals weighted with the paper's four
// costs, random edits (SetEdge, RemoveEdge, ClearNode, ReplaceLinks) are
// interleaved with lookups in random destination order, and every answer
// must equal the full-settle reference's — next hop (-1 for unreachable
// terminals) and distance. Each edit must move the version exactly when it
// changed some edge.
func TestNextHopMatchesFullSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(63)
		g := NewGraph(n)
		density := 1 + rng.Intn(6)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(n) < density {
					g.SetEdge(u, v, paperCosts[rng.Intn(len(paperCosts))])
				}
			}
		}
		src := rng.Intn(n)
		for step := 0; step < 60; step++ {
			before, ver := edgeLists(g), g.version
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				g.SetEdge(u, v, paperCosts[rng.Intn(len(paperCosts))])
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.ClearNode(u)
			case 3:
				g.ReplaceLinks(u, randomLinks(rng, n, u))
			case 4:
				// Re-advertise u's current links unchanged: a no-op LSA.
				var links []Link
				for _, e := range g.adj[u] {
					links = append(links, Link{Neighbor: int(e.to), Cost: e.w})
				}
				g.ReplaceLinks(u, links)
			case 5:
				src = u
			}
			if changed := !sameEdgeLists(before, edgeLists(g)); changed != (g.version != ver) {
				t.Fatalf("trial %d step %d: edges changed %v but version %d -> %d", trial, step, changed, ver, g.version)
			}

			wantNext, wantDist := g.ShortestPaths(src, nil, nil)
			for _, dst := range rng.Perm(n)[:1+rng.Intn(n)] {
				next, dist := g.NextHop(src, dst), g.tree.dist[dst]
				if next != wantNext[dst] || dist != wantDist[dst] {
					t.Fatalf("trial %d step %d: NextHop(%d, %d) = (%d, %v), full settle (%d, %v)",
						trial, step, src, dst, next, dist, wantNext[dst], wantDist[dst])
				}
			}
		}
	}
}

// TestReplaceLinksMatchesClearAndSet pins the diff-apply to the edit it
// replaces: ReplaceLinks(u, links) must leave exactly the edge lists that
// ClearNode(u) plus one SetEdge per link, in order, leaves — for sorted
// links with duplicates, self-links and unusable costs.
func TestReplaceLinksMatchesClearAndSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(63)
		diff, ref := NewGraph(n), NewGraph(n)
		for k := 0; k < n*2; k++ {
			u, v, w := rng.Intn(n), rng.Intn(n), paperCosts[rng.Intn(len(paperCosts))]
			diff.SetEdge(u, v, w)
			ref.SetEdge(u, v, w)
		}
		for step := 0; step < 20; step++ {
			u := rng.Intn(n)
			links := randomLinks(rng, n, u)
			diff.ReplaceLinks(u, links)
			ref.ClearNode(u)
			for _, l := range links {
				ref.SetEdge(u, l.Neighbor, l.Cost)
			}
			if !sameEdgeLists(edgeLists(diff), edgeLists(ref)) {
				t.Fatalf("trial %d step %d: ReplaceLinks(%d, %v) diverged from ClearNode+SetEdge", trial, step, u, links)
			}
		}
	}
}

func TestReplaceLinksRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted links were accepted")
		}
	}()
	NewGraph(4).ReplaceLinks(0, []Link{{Neighbor: 2, Cost: 1}, {Neighbor: 1, Cost: 1}})
}

// TestNextHopResumesAcrossLookups checks that the tree is resumed, not
// rebuilt: with an unchanged version a later lookup continues from the
// settled prefix, and an edit that changes nothing keeps it.
func TestNextHopResumesAcrossLookups(t *testing.T) {
	g := NewGraph(5)
	for i := 0; i < 4; i++ {
		g.SetEdge(i, i+1, 1)
	}
	if next := g.NextHop(0, 1); next != 1 {
		t.Fatalf("NextHop(0, 1) = %d, want 1", next)
	}
	if g.tree.done[4] {
		t.Fatal("lookup for 1 settled the far end of the line")
	}
	g.SetEdge(0, 1, 1) // same weight: no change, tree kept
	if !g.tree.done[1] {
		t.Fatal("a no-op edit re-seeded the tree")
	}
	if next, dist := g.NextHop(0, 4), g.tree.dist[4]; next != 1 || dist != 4 {
		t.Fatalf("NextHop(0, 4) = (%d, %v), want (1, 4)", next, dist)
	}
}

// TestHistoryPackedTableMatchesMap drives the open-addressed history and
// a plain map reference through a randomized flood-copy schedule —
// including keys that overflow the packed ranges and spill — asserting
// identical FirstCopy/Improved/Lookup answers throughout.
func TestHistoryPackedTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistory()
	ref := make(map[packet.FloodKey]FloodRecord)

	for step := 0; step < 20000; step++ {
		pkt := &packet.Packet{
			Type:        packet.Type(1 + rng.Intn(11)),
			Src:         rng.Intn(200),
			Dst:         rng.Intn(200),
			From:        rng.Intn(200),
			BroadcastID: uint32(rng.Intn(300)),
			HopCount:    float64(rng.Intn(40)),
			GeoHops:     rng.Intn(12),
		}
		if step%97 == 0 {
			pkt.Src = 1 << 20 // beyond the packed origin range: spill tier
		}
		key := pkt.Key()
		now := time.Duration(step) * time.Millisecond

		var wantRec FloodRecord
		var wantNew bool
		if rec, ok := ref[key]; ok {
			wantRec, wantNew = rec, false
		} else {
			wantRec = FloodRecord{FirstFrom: pkt.From, HopCount: pkt.HopCount, GeoHops: pkt.GeoHops, At: now}
			ref[key] = wantRec
			wantNew = true
		}

		if rng.Intn(2) == 0 {
			got, first := h.FirstCopy(pkt, now)
			if first != wantNew || got != wantRec {
				t.Fatalf("step %d: FirstCopy = (%+v, %v), reference (%+v, %v)", step, got, first, wantRec, wantNew)
			}
		} else {
			wantImproved := wantNew
			if !wantNew && pkt.HopCount < wantRec.HopCount-metricImprovement {
				wantRec = FloodRecord{FirstFrom: pkt.From, HopCount: pkt.HopCount, GeoHops: pkt.GeoHops, At: now}
				ref[key] = wantRec
				wantImproved = true
			}
			got, improved := h.Improved(pkt, now)
			if improved != wantImproved || got != wantRec {
				t.Fatalf("step %d: Improved = (%+v, %v), reference (%+v, %v)", step, got, improved, wantRec, wantImproved)
			}
		}
		if got, ok := h.Lookup(key); !ok || got != ref[key] {
			t.Fatalf("step %d: Lookup = (%+v, %v), reference (%+v, true)", step, got, ok, ref[key])
		}
	}
}

// releasingEnv mimics the production network.Node contract that
// DropData is a terminal sink: the dropped packet is released back to
// the pool (where it is zeroed and may be reused immediately).
type releasingEnv struct {
	*routingtest.Env
}

func (e releasingEnv) DropData(pkt *packet.Packet, reason network.DropReason) {
	e.Env.DropData(pkt, reason)
	pkt.Release()
}

// TestBufferAndDiscoverSurvivesCongestionRecycle regression-tests the
// pooled-packet congestion path: when the pending buffer is already at
// capacity, Add drops and recycles the incoming packet — the discovery
// flood must still target the packet's real destination, not whatever a
// recycled (zeroed) record reports.
func TestBufferAndDiscoverSurvivesCongestionRecycle(t *testing.T) {
	env := releasingEnv{routingtest.New(3, 10)}
	core := NewCore(env, CoreConfig{Accumulate: func(*packet.Packet) {}})

	const dst = 7
	for i := 0; i < PendingCap; i++ {
		filler := packet.Get()
		filler.Type, filler.Src, filler.Dst = packet.TypeData, env.ID(), dst
		core.BufferAndDiscover(filler, 0)
	}
	env.Reset() // keep only the traffic caused by the overflowing packet

	over := packet.Get()
	over.Type, over.Src, over.Dst = packet.TypeData, env.ID(), dst
	core.BufferAndDiscover(over, 0)

	drops := env.Drops
	if len(drops) != 1 || drops[0].Reason != network.DropCongestion {
		t.Fatalf("overflow packet not dropped as congestion: %+v", drops)
	}
	// The query toward dst is already outstanding from the fill phase, so
	// no packet may have been sent at all — and in particular no spurious
	// RREQ toward terminal 0 (the zero value a recycled packet reports).
	for _, p := range env.Sent {
		if p.Type == packet.TypeRREQ && p.Dst != dst {
			t.Fatalf("discovery flood targeted %d, want %d", p.Dst, dst)
		}
	}
	if _, running := core.queries[0]; running {
		t.Fatal("spurious discovery toward terminal 0 after congestion recycle")
	}
	if _, running := core.queries[dst]; !running {
		t.Fatal("discovery toward the real destination was lost")
	}
}
