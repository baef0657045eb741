package routing

import "slices"

// Graph is a weighted adjacency structure over terminals 0..N-1, used by
// the link-state protocol's per-node topology views. Edge weights are the
// CSI hop distances of the paper's cost model.
//
// Adjacency is kept as per-node edge lists sorted by neighbour id: the
// paper-scale degree is around ten, where a binary-searched slice beats a
// map on every operation, iteration order is deterministic without a
// per-visit sort, and the Dijkstra inner loop walks contiguous memory.
//
// Forwarding lookups are demand-driven (NextHop): the graph keeps one
// resumable shortest-path tree and settles it only as far as the asked
// destination. The tree is re-seeded when the graph's version — which
// moves exactly when an edge is inserted, removed or re-weighted — differs
// from the version it was seeded at.
type Graph struct {
	n       int
	adj     [][]gedge
	version uint64

	tree  sptTree
	merge []gedge // ReplaceLinks scratch, recycled between calls
}

// gedge is one directed half of an undirected edge.
type gedge struct {
	to int32
	w  float64
}

// Link is one advertised incident link: a neighbour and its CSI hop
// distance. It is the link-state LSA payload entry.
type Link struct {
	Neighbor int
	Cost     float64
}

// sptTree is a partially settled Dijkstra run from src over the graph as
// it stood at version. Settled nodes (done) hold their final distance and
// first hop; heap holds the frontier the next lookup resumes from, and pos
// each node's index in it. The buffers are recycled across re-seeds, so
// the steady state allocates nothing.
type sptTree struct {
	src     int // -1 until the first lookup seeds the tree
	version uint64
	next    []int32
	dist    []float64
	done    []bool
	pos     []int32
	heap    []int32
}

// NewGraph returns an empty graph over n terminals.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]gedge, n), tree: sptTree{src: -1}}
}

// N reports the number of terminals.
func (g *Graph) N() int { return g.n }

// edgeIdx returns the position of v in u's sorted edge list and whether
// it is present; absent, the position is the insertion point.
func (g *Graph) edgeIdx(u, v int) (int, bool) {
	es := g.adj[u]
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(es[mid].to) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && int(es[lo].to) == v
}

// setHalf installs u→v with weight w and reports whether that changed
// anything.
func (g *Graph) setHalf(u, v int, w float64) bool {
	i, ok := g.edgeIdx(u, v)
	if ok {
		if g.adj[u][i].w == w {
			return false
		}
		g.adj[u][i].w = w
		return true
	}
	es := append(g.adj[u], gedge{})
	copy(es[i+1:], es[i:])
	es[i] = gedge{to: int32(v), w: w}
	g.adj[u] = es
	return true
}

// dropHalf removes u→v and reports whether it was present.
func (g *Graph) dropHalf(u, v int) bool {
	i, ok := g.edgeIdx(u, v)
	if ok {
		es := g.adj[u]
		g.adj[u] = append(es[:i], es[i+1:]...)
	}
	return ok
}

// usable reports whether w is an edge weight; anything else removes the
// edge.
func usable(w float64) bool { return w > 0 && w < InfiniteHops }

// SetEdge installs the undirected edge (u, v) with weight w, replacing any
// previous weight. Non-positive or infinite weights remove the edge.
func (g *Graph) SetEdge(u, v int, w float64) {
	if u == v {
		return
	}
	var changed bool
	if usable(w) {
		changed = g.setHalf(u, v, w)
		changed = g.setHalf(v, u, w) || changed
	} else {
		changed = g.dropHalf(u, v)
		changed = g.dropHalf(v, u) || changed
	}
	if changed {
		g.version++
	}
}

// RemoveEdge deletes the undirected edge (u, v).
func (g *Graph) RemoveEdge(u, v int) { g.SetEdge(u, v, 0) }

// Edge reports the weight of (u, v) and whether it exists.
func (g *Graph) Edge(u, v int) (float64, bool) {
	if i, ok := g.edgeIdx(u, v); ok {
		return g.adj[u][i].w, true
	}
	return 0, false
}

// ReplaceLinks makes links u's complete set of incident edges — a
// terminal's LSA replacing its previous advertisement. The result equals
// removing every edge of u and then calling SetEdge(u, l.Neighbor, l.Cost)
// for each link in order (so self-links and unusable costs are dropped,
// and of duplicate neighbours the last entry wins), but it is one sorted
// merge of the old and new lists: only far halves that differ are touched,
// and an advertisement that changes nothing leaves the graph and its
// version alone. links must be sorted by neighbour id.
func (g *Graph) ReplaceLinks(u int, links []Link) {
	old := g.adj[u]
	out := g.merge[:0]
	changed := false
	i := 0
	for k := 0; k < len(links); k++ {
		v := links[k].Neighbor
		if k+1 < len(links) {
			if nv := links[k+1].Neighbor; nv == v {
				continue
			} else if nv < v {
				panic("routing: ReplaceLinks links not sorted by neighbour")
			}
		}
		w := links[k].Cost
		if v == u || !usable(w) {
			continue
		}
		for ; i < len(old) && int(old[i].to) < v; i++ {
			g.dropHalf(int(old[i].to), u)
			changed = true
		}
		if i < len(old) && int(old[i].to) == v {
			if old[i].w != w {
				g.setHalf(v, u, w)
				changed = true
			}
			i++
		} else {
			g.setHalf(v, u, w)
			changed = true
		}
		out = append(out, gedge{to: int32(v), w: w})
	}
	for ; i < len(old); i++ {
		g.dropHalf(int(old[i].to), u)
		changed = true
	}
	if changed {
		g.adj[u] = append(old[:0], out...)
		g.version++
	}
	g.merge = out[:0]
}

// CopyFrom replaces g's edges with src's. Both graphs must cover the same
// terminal count; the receiver's storage is reused. Link-state agents
// install the shared boot topology into their private views with it.
func (g *Graph) CopyFrom(src *Graph) {
	if g.n != src.n {
		panic("routing: CopyFrom across different graph sizes")
	}
	changed := false
	for i := range g.adj {
		if !slices.Equal(g.adj[i], src.adj[i]) {
			g.adj[i] = append(g.adj[i][:0], src.adj[i]...)
			changed = true
		}
	}
	if changed {
		g.version++
	}
}

// InfiniteHops mirrors channel.Class.HopDistance's sentinel without
// importing the channel package here.
const InfiniteHops = 1e9

// NextHop returns the first hop on a shortest path from src to dst, or -1
// if dst is unreachable or is src.
//
// It resumes the graph's shortest-path tree from src, settling nodes in
// (distance, id) order only until dst is settled or the frontier is empty.
// The settle order is that of a full Dijkstra run and a settled node's
// first hop is final, so every answer equals the full run's; a later
// lookup continues where this one stopped. The tree is re-seeded, in
// O(N), only when src or the graph's version changed since it was seeded.
func (g *Graph) NextHop(src, dst int) int {
	t := &g.tree
	if t.src != src || t.version != g.version {
		g.seed(src)
	}
	for !t.done[dst] && len(t.heap) > 0 {
		u := t.pop()
		t.done[u] = true
		// Edge lists are sorted by neighbour id, so equal-cost tie-breaks
		// relax in deterministic order for reproducible trials.
		for _, e := range g.adj[u] {
			v := e.to
			nd := t.dist[u] + e.w
			if nd < t.dist[v] {
				t.dist[v] = nd
				if u == int32(src) {
					t.next[v] = v
				} else {
					t.next[v] = t.next[u]
				}
				t.push(v)
			}
		}
	}
	return int(t.next[dst])
}

// seed resets the tree to src alone on the frontier.
func (g *Graph) seed(src int) {
	t := &g.tree
	t.src, t.version = src, g.version
	t.next = slices.Grow(t.next[:0], g.n)[:g.n]
	t.dist = slices.Grow(t.dist[:0], g.n)[:g.n]
	t.done = slices.Grow(t.done[:0], g.n)[:g.n]
	t.pos = slices.Grow(t.pos[:0], g.n)[:g.n]
	for i := range t.next {
		t.next[i] = -1
		t.dist[i] = InfiniteHops
		t.done[i] = false
		t.pos[i] = -1
	}
	t.dist[src] = 0
	t.heap = t.heap[:0]
	t.push(int32(src))
}

// The frontier is a hand-rolled indexed binary min-heap of node ids keyed
// by (dist, id). Each unsettled, reached node sits in it exactly once —
// pos maps a node to its heap index, -1 when absent — and an improved
// distance sifts the node up in place (decrease-key), so the heap never
// holds stale entries. The ordering has no ties, so the pop sequence is
// the unique sorted frontier regardless of internal layout.

func (t *sptTree) less(a, b int32) bool {
	if t.dist[a] != t.dist[b] {
		return t.dist[a] < t.dist[b]
	}
	return a < b
}

// push inserts v, or sifts it up after its distance decreased.
func (t *sptTree) push(v int32) {
	i := int(t.pos[v])
	if i < 0 {
		i = len(t.heap)
		t.heap = append(t.heap, v)
	}
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(v, h[p]) {
			break
		}
		h[i] = h[p]
		t.pos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	t.pos[v] = int32(i)
}

// pop removes and returns the frontier's minimum.
func (t *sptTree) pop() int32 {
	h := t.heap
	top := h[0]
	t.pos[top] = -1
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	t.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && t.less(h[r], h[least]) {
			least = r
		}
		if !t.less(h[least], last) {
			break
		}
		h[i] = h[least]
		t.pos[h[i]] = int32(i)
		i = least
	}
	h[i] = last
	t.pos[last] = int32(i)
	return top
}
