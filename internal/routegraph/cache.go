package routegraph

import "repro/internal/gates"

// Congestion-aware route cache.
//
// Trap-pair shortest paths depend only on the edge weights, and the
// Eq. 2 weights depend only on group occupancies — so while the
// graph's TOTAL occupancy is zero (the overwhelming majority of
// queries in low-traffic circuits, and every query of a placement
// sweep's cold phases) repeated FindRoute calls re-derive the same
// answer. Occupancy state therefore keys the cache: all totally idle
// states are weight-identical regardless of history, so entries are
// recorded and served exactly while totalOcc == 0 (tracked by
// Occupy/Release). Under congestion every commit would invalidate
// the whole cache anyway (the engine commits immediately after each
// successful query), so recording there is wasted work and is
// skipped.
//
// Bit-identical replay. FindRoute's equal-cost tie-break consumes a
// seeded rng stream shared across queries, so a cache cannot simply
// return the previously computed hops: a fresh search would draw
// NEW coins and may legitimately return a different (equal-cost)
// path, and later queries would then see a shifted stream. The
// search trajectory, however — pop order, relaxation order, distance
// labels, and therefore the *sequence of tie events* — is fully
// deterministic for fixed weights: the coin only ever chooses which
// predecessor an unsettled node keeps, which feeds back into
// nothing. A hit therefore (1) draws exactly numTies fresh coins,
// keeping the stream aligned with what the uncached search would
// have consumed, and (2) replays the recorded predecessor-write
// trajectory against those draws: a strict write always lands, an
// equal-cost write lands iff its coin came up 0. The forward replay
// reproduces, bit for bit, the via array — and hence the route — the
// uncached search would have produced. Equivalence is pinned by the
// golden fingerprints in golden_test.go.

// maxCacheEntries bounds cache memory. A trajectory is O(|edges|)
// ints, so the worst case is a few KB per entry; when the bound is
// hit the whole map is dropped (deterministic, and correctness never
// depends on cache contents).
const maxCacheEntries = 2048

type routeEntry struct {
	found    bool
	cost     gates.Time
	numTies  int32
	src, dst int32
	writes   []viaWrite
	// hops is the ALT-mode payload: canonical routes carry no tie
	// coins, so the hop sequence itself is cached and replayed
	// verbatim (writes/numTies stay empty in that mode).
	hops []Hop
}

// putCacheEntry inserts under the shared size bound (classic and ALT
// entries live in one map; a graph only ever produces one kind).
func (g *Graph) putCacheEntry(key uint64, e *routeEntry) {
	if len(g.cache) >= maxCacheEntries {
		clear(g.cache)
	}
	g.cache[key] = e
}

func routeKey(fromTrap, toTrap int) uint64 {
	return uint64(uint32(fromTrap))<<32 | uint64(uint32(toTrap))
}

// storeCacheEntry captures the just-finished recorded search.
func (g *Graph) storeCacheEntry(key uint64, s *searcher, found bool) {
	e := &routeEntry{
		found:   found,
		numTies: s.numTies,
		src:     s.lastSrc,
		dst:     s.lastDst,
	}
	if found {
		e.cost = s.dist[s.lastDst]
		e.writes = append([]viaWrite(nil), s.writes...)
	}
	g.putCacheEntry(key, e)
}

// replayCacheEntry serves a hit: consume exactly the coin flips the
// uncached search would have consumed, then rebuild the via array
// from the recorded trajectory under those draws.
func (g *Graph) replayCacheEntry(e *routeEntry, fromTrap, toTrap int) (Route, bool) {
	g.work.CacheHits++
	draws := g.drawBuf[:0]
	for i := int32(0); i < e.numTies; i++ {
		draws = append(draws, int8(g.rng.Intn(2)))
	}
	g.drawBuf = draws
	g.coins += uint64(e.numTies)
	g.work.Coins += uint64(e.numTies)
	if !e.found {
		return Route{}, false
	}
	s := g.searcher()
	s.begin()
	via := s.via
	for _, w := range e.writes {
		if w.tie >= 0 && draws[w.tie] != 0 {
			continue // losing coin: this equal-cost write did not land
		}
		via[w.node] = w.edge
	}
	s.lastSrc, s.lastDst = e.src, e.dst
	g.hopsBuf = s.appendHops(g.hopsBuf[:0])
	return g.buildRoute(fromTrap, toTrap, e.cost), true
}
