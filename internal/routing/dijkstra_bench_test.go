package routing

import (
	"math"
	"math/rand"
	"testing"
)

// fwdOp is one step of the link-state forwarding script: an LSA from
// origin carrying links, or (origin < 0) a next-hop lookup for dst.
type fwdOp struct {
	origin int
	links  []Link
	dst    int
}

// forwardingChecksum pins the next hops the forwarding script answers.
// TestLinkStateForwardingScript derives it from the full-settle reference,
// and BenchmarkLinkStateForwarding asserts it on every iteration, so the
// benchmark doubles as a bit-identity check of the forwarding layer.
const forwardingChecksum = 0x71dcb3c58d339481

// forwardingScript builds the fixed input of BenchmarkLinkStateForwarding:
// a 50-terminal boot view from a fixed seed (terminals scattered over
// 1 km², linked within 250 m with the class cost of their distance) and a
// script, seen from terminal 0, of 400 LSAs — a terminal moves up to
// 30 m and re-advertises its re-measured links, with one class in five
// flapping by one step the way faded channels do — each followed by three
// lookups for random destinations.
func forwardingScript() (*Graph, []fwdOp) {
	const n = 50
	rng := rand.New(rand.NewSource(13))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*1000, rng.Float64()*1000
	}
	class := func(i, j int) int {
		d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		if d >= 250 {
			return -1
		}
		return int(d / 62.5)
	}

	boot := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c := class(i, j); c >= 0 {
				boot.SetEdge(i, j, paperCosts[c])
			}
		}
	}

	var ops []fwdOp
	for step := 0; step < 400; step++ {
		o := rng.Intn(n)
		xs[o] += (rng.Float64()*2 - 1) * 30
		ys[o] += (rng.Float64()*2 - 1) * 30
		var links []Link
		for j := 0; j < n; j++ {
			c := class(o, j)
			if j == o || c < 0 {
				continue
			}
			if rng.Intn(5) == 0 {
				c = min(max(c+rng.Intn(3)-1, 0), len(paperCosts)-1)
			}
			links = append(links, Link{Neighbor: j, Cost: paperCosts[c]})
		}
		ops = append(ops, fwdOp{origin: o, links: links})
		for k := 0; k < 3; k++ {
			ops = append(ops, fwdOp{origin: -1, dst: rng.Intn(n)})
		}
	}
	return boot, ops
}

// replayForwarding installs boot into view, runs the script against it
// from terminal 0 with lookup answering each next-hop query, and returns
// the FNV-1a fold of the answers.
func replayForwarding(view, boot *Graph, ops []fwdOp, lookup func(g *Graph, dst int) int) uint64 {
	view.CopyFrom(boot)
	sum := uint64(14695981039346656037)
	for i := range ops {
		op := &ops[i]
		if op.origin >= 0 {
			view.ReplaceLinks(op.origin, op.links)
			continue
		}
		sum = (sum ^ uint64(lookup(view, op.dst)+1)) * 1099511628211
	}
	return sum
}

func demandLookup(g *Graph, dst int) int { return g.NextHop(0, dst) }

// TestLinkStateForwardingScript grounds the pinned checksum: the script's
// answers through the demand-driven tree equal the full-settle
// reference's, and fold to forwardingChecksum.
func TestLinkStateForwardingScript(t *testing.T) {
	boot, ops := forwardingScript()
	var next []int
	want := replayForwarding(NewGraph(boot.N()), boot, ops, func(g *Graph, dst int) int {
		next, _ = g.ShortestPaths(0, next, nil)
		return next[dst]
	})
	got := replayForwarding(NewGraph(boot.N()), boot, ops, demandLookup)
	if got != want {
		t.Fatalf("demand-driven checksum %#x, full settle %#x", got, want)
	}
	if got != forwardingChecksum {
		t.Fatalf("forwarding checksum %#x, pinned %#x", got, uint64(forwardingChecksum))
	}
}

// BenchmarkLinkStateForwarding is the link-state forwarding layer on a
// fixed input: one op replays the whole forwarding script (LSA diffs and
// next-hop lookups) against a view reset to the boot topology. It asserts
// the pinned answer checksum on every op, and the steady state allocates
// nothing (scripts/alloc_budget.txt budgets it at 0).
func BenchmarkLinkStateForwarding(b *testing.B) {
	boot, ops := forwardingScript()
	view := NewGraph(boot.N())
	if got := replayForwarding(view, boot, ops, demandLookup); got != forwardingChecksum {
		b.Fatalf("forwarding checksum %#x, pinned %#x", got, uint64(forwardingChecksum))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := replayForwarding(view, boot, ops, demandLookup); got != forwardingChecksum {
			b.Fatalf("forwarding checksum %#x, pinned %#x", got, uint64(forwardingChecksum))
		}
	}
}
