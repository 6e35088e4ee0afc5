package routegraph

import "repro/internal/gates"

// This file is the zero-allocation Dijkstra core behind FindRoute:
// one monomorphic loop over the Eq. 2 congestion weights. Design:
//
//   - The graph adjacency is flattened into CSR arrays at build time
//     (edgeStart/edgeList, plus edgeOther carrying the far endpoint
//     of each adjacency slot so the inner loop never branches on
//     "which end am I").
//   - Eq. 2 is read inline from Edges/Groups and the tie coin is
//     drawn inline from the graph's rng: the hot loop calls no
//     weight or tie callbacks.
//   - All per-query state (dist/via/settled) lives in a reusable
//     searcher and is invalidated in O(1) by bumping a generation
//     counter instead of clearing O(|nodes|) memory.
//   - The priority queue is a monomorphic slice heap: no container/
//     heap, no `any` boxing, zero allocations at steady state.
//
// IMPORTANT — heap shape. The legacy implementation used
// container/heap over a binary heap, and FindRoute breaks cost ties
// with a seeded rng that is consumed once per "equal-cost relaxation
// event". The sequence of those events depends on the exact pop
// order among equal-distance heap entries, so this heap replicates
// container/heap's binary sift-up/sift-down *verbatim*. A 4-ary heap
// would be marginally faster on paper but changes the pop order
// among equal keys, which perturbs the tie-break stream and breaks
// the pinned golden equivalence with the pre-refactor router (see
// golden_test.go). Bit-identical results win over a few percent of
// heap arithmetic.

type searchNode struct {
	node int32
	dist gates.Time
}

// viaWrite records one write to the predecessor array during a
// search. tie < 0 marks an unconditional (strictly-improving) write;
// tie >= 0 marks the tie-index of an equal-cost write that the
// seeded coin accepted or rejected. The route cache replays these
// against a fresh draw sequence (see cache.go).
type viaWrite struct {
	node int32
	edge int32
	tie  int32
}

// searcher is the reusable Dijkstra state of one Graph. FindRoute is
// single-threaded by contract, so each graph owns exactly one,
// created on its first search.
type searcher struct {
	g *Graph

	dist         []gates.Time
	via          []int32
	distStamp    []uint32
	settledStamp []uint32
	gen          uint32
	heap         []searchNode
	revBuf       []int32

	// writes logs every predecessor write of a recorded search for
	// the route cache; numTies counts the search's tie coins.
	writes  []viaWrite
	numTies int32

	lastSrc, lastDst int32
}

// searcher returns the graph's search state, allocating it on first
// use. The zero-allocation guarantee holds from the second query on
// (buffers grow to their steady-state size during the first).
func (g *Graph) searcher() *searcher {
	if g.search == nil {
		n := len(g.Nodes)
		g.search = &searcher{
			g:            g,
			dist:         make([]gates.Time, n),
			via:          make([]int32, n),
			distStamp:    make([]uint32, n),
			settledStamp: make([]uint32, n),
		}
	}
	return g.search
}

// begin opens a fresh query: O(1) state reset via generation bump.
func (s *searcher) begin() {
	s.gen++
	if s.gen == 0 { // uint32 wrap: clear stamps once every 4G queries
		clear(s.distStamp)
		clear(s.settledStamp)
		s.gen = 1
	}
	s.heap = s.heap[:0]
	s.writes = s.writes[:0]
	s.numTies = 0
}

// pushNode appends and sifts up, replicating container/heap.Push
// exactly (strict < comparison, identical swap order).
func pushNode(h []searchNode, x searchNode) []searchNode {
	h = append(h, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// popNode replicates container/heap.Pop exactly: swap root with last,
// sift down over the shortened heap, return the displaced root.
func popNode(h []searchNode) (searchNode, []searchNode) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}

// run executes Dijkstra from graph node src to dst under the Eq. 2
// weights: (occ+1)*SelectBase, with an edge of a saturated group
// impassable. An equal-cost relaxation of an unsettled node draws one
// seeded coin, which may redirect the node's predecessor; record
// additionally logs every predecessor write for cache replay. Trap
// nodes other than src/dst are excluded (gate sites are not
// thoroughfares).
func (s *searcher) run(src, dst int32, record bool) bool {
	s.begin()
	s.lastSrc, s.lastDst = src, dst
	g := s.g
	dist, stamp, settled, via := s.dist, s.distStamp, s.settledStamp, s.via
	gen := s.gen
	kinds := g.nodeKind
	start, list, other := g.edgeStart, g.edgeList, g.edgeOther
	edges, groups := g.Edges, g.Groups
	rng := g.rng
	var numTies int32
	var numSettled uint64

	dist[src] = 0
	stamp[src] = gen
	via[src] = -1
	h := pushNode(s.heap, searchNode{node: src})
	for len(h) > 0 {
		var cur searchNode
		cur, h = popNode(h)
		cn := cur.node
		if cur.dist > dist[cn] || settled[cn] == gen {
			continue
		}
		settled[cn] = gen
		numSettled++
		if cn == dst {
			break
		}
		for k := start[cn]; k < start[cn+1]; k++ {
			next := other[k]
			if kinds[next] == TrapNode && next != dst && next != src {
				continue
			}
			eid := list[k]
			e := &edges[eid]
			gr := &groups[e.Group]
			if gr.occ >= gr.Capacity {
				continue
			}
			nd := cur.dist + gates.Time(gr.occ+1)*e.SelectBase
			if stamp[next] != gen || nd < dist[next] {
				dist[next] = nd
				stamp[next] = gen
				via[next] = eid
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: -1})
				}
				h = pushNode(h, searchNode{node: next, dist: nd})
			} else if nd == dist[next] && settled[next] != gen {
				// Equal-cost alternatives are indistinguishable to the
				// router (Fig. 5); the coin picks one arbitrarily but
				// reproducibly. Swapping the predecessor of an
				// unsettled node cannot invalidate settled paths.
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: numTies})
				}
				numTies++
				if rng.Intn(2) == 0 {
					via[next] = eid
				}
			}
		}
	}
	s.heap = h
	s.numTies = numTies
	g.coins += uint64(numTies)
	g.work.Coins += uint64(numTies)
	g.work.Settled += numSettled
	g.work.Searches++
	return stamp[dst] == gen
}

// appendHops appends the hops of the path the last found search (or
// cache replay) left in via, in travel order.
func (s *searcher) appendHops(hops []Hop) []Hop {
	g := s.g
	rev := s.revBuf[:0]
	for n := s.lastDst; n != s.lastSrc; {
		eid := s.via[n]
		rev = append(rev, eid)
		e := &g.Edges[eid]
		if int32(e.A) == n {
			n = int32(e.B)
		} else {
			n = int32(e.A)
		}
	}
	s.revBuf = rev
	for i := len(rev) - 1; i >= 0; i-- {
		e := &g.Edges[rev[i]]
		hops = append(hops, Hop{
			Edge: e.ID, Group: e.Group,
			Delay: e.RealDelay, Moves: e.Moves, Turns: e.Turns,
		})
	}
	return hops
}
