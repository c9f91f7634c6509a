package bgp

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"spineless/internal/parallel"
)

// Route is one node's converged state for a destination prefix.
type Route struct {
	// ASPathLen is the length of the best AS-path (number of AS entries,
	// including prepends and the originator).
	ASPathLen int
	// ASPath is the canonical best path (lexicographically smallest among
	// equal-length bests), listing router ids, prepends included.
	ASPath []int
	// NextHops are the virtual nodes whose advertisements tied for best —
	// the ECMP set ("maximum-paths" with equal AS-path lengths).
	NextHops []NodeID
}

// Rib is the converged routing state: Rib[node][dstRouter]. Ribs are
// immutable by contract: an incremental reconvergence (ConvergeDirty)
// returns a Rib whose unchanged routes share ASPath and NextHops storage
// with the previous one, so callers must not write through a Route's
// slices.
type Rib map[NodeID][]Route

const inf = 1 << 30

// The convergence engine runs one destination at a time. recompute(x, d)
// reads only entries for the same destination d, so every destination runs
// its own synchronous rounds, and the protocol's round count is the largest
// of them: a destination that commits nothing in a round has nothing to
// recompute in any later one. Each destination's round 1 recomputes a
// candidate set (the origin's dependents from a cold start, the dirty
// routers' entries for ConvergeDirty) and every later round only the
// out-dependents of what the previous round committed; collect-then-commit
// keeps rounds synchronous, so the result is exactly the dense sweep's.
//
// Per-destination state is a handful of int32 columns over dense node ids:
// AS-path length, path reference and hop-set offset and count. A path is a
// persistent chain of runs (router, repeat count, parent) in an arena, so a
// changed entry costs one run node and its dependents share the tail. Paths
// seeded from a previous RIB are arena leaves that read prev's ASPath slice
// in place. The RIB is materialized once, after every destination settled,
// from the final lengths, the best advertiser of each entry (via) and the
// hop sets, exported as bits over the inbound-session table.

// via values below zero: how an entry's final path is found without a best
// advertiser.
const (
	viaOrigin int32 = -1 // the originated prefix: the path is [dst]
	viaNone   int32 = -2 // unreachable
	viaPrev   int32 = -3 // seeded from the previous RIB and never replaced
)

// noPath is the path reference of an unreachable entry; references below it
// are prev leaves (-2-x reads node x's previous ASPath).
const noPath int32 = -1

// Converge runs synchronous path-vector iterations until a fixpoint: every
// round, every node advertises its single best path per prefix to its
// inbound peers (with per-session prepending); receivers drop paths that
// contain their own AS (BGP loop prevention) and keep all equal-best
// advertisements as ECMP next hops. It returns the converged RIB and the
// number of rounds taken.
func (n *Network) Converge() (Rib, int, error) {
	return n.converge(nil, nil)
}

// ConvergeDirty reconverges starting from a previous RIB — the §7 failure
// question: after links fail (the Network is built on the failed fabric but
// nodes still hold prev's routes), how many rounds until the protocol
// settles? Round 1 recomputes only dirtyRouters' VRF entries, and change
// propagation takes over from there; local prefixes are re-originated. When
// prev is a converged RIB of a network differing from n only at sessions
// incident to dirtyRouters, the result — RIB and round count — is the dense
// warm-start sweep's (every router dirty), because every entry outside the
// dirty region is at its fixpoint and a dense round 1 would not change it
// either. prev must hold a full row for every node of n.
func (n *Network) ConvergeDirty(prev Rib, dirtyRouters []int) (Rib, int, error) {
	nr := n.Topo.N()
	rows := make([][]Route, nr*n.K)
	for x := range rows {
		row, ok := prev[n.nodeAt(x)]
		if !ok || len(row) != nr {
			return nil, 0, fmt.Errorf("bgp: ConvergeDirty needs a complete previous RIB (missing %v)", n.nodeAt(x))
		}
		rows[x] = row
	}
	routers := append([]int(nil), dirtyRouters...)
	sort.Ints(routers)
	dirty := make([]int32, 0, len(routers)*n.K)
	for i, r := range routers {
		if r < 0 || r >= nr {
			return nil, 0, fmt.Errorf("bgp: dirty router %d out of range [0,%d)", r, nr)
		}
		if i > 0 && r == routers[i-1] {
			continue
		}
		for vrf := 1; vrf <= n.K; vrf++ {
			dirty = append(dirty, int32(n.nodeIdx(NodeID{r, vrf})))
		}
	}
	return n.converge(rows, dirty)
}

// nodeIdx flattens a NodeID into the engine's dense index space.
func (n *Network) nodeIdx(id NodeID) int { return id.Router*n.K + id.VRF - 1 }

// nodeAt is the inverse of nodeIdx.
func (n *Network) nodeAt(i int) NodeID { return NodeID{Router: i / n.K, VRF: i%n.K + 1} }

// run is one arena node: router repeated times, then the path at parent.
// routers has bit r%64 set for every router r on the path, a filter that
// answers most loop checks without a walk.
type run struct {
	router, times, parent int32
	routers               uint64
}

// newRun returns the run node for "router times times, then the path at
// parent"; a prev leaf parent filters nothing.
func (s *dest) newRun(router, times, parent int32) run {
	routers := ^uint64(0)
	if parent >= 0 {
		routers = s.arena[parent].routers
	}
	return run{router, times, parent, routers | 1<<(router&63)}
}

// engine is one convergence call. Destination d owns column d of ln, via and
// hopBits and slot d of rounds and the size counts, so the fan-out writes
// nothing shared.
type engine struct {
	n         *Network
	nr, nn, k int
	prev      [][]Route // by dense node id, every row full; nil for a cold start
	dirty     []int32   // round-1 nodes after a warm start

	ln, via []int32  // final AS-path length and best advertiser, column-major
	hopBits []uint64 // final hop sets: bit i of column d is inbound slot i
	words   int      // hopBits words per column

	rounds, pathN, hopN []int
	maxRounds           int
}

// dest is the working memory of one destination's convergence. Everything
// in it is reset before it is read, so which destination used it last never
// shows in a result.
type dest struct {
	e    *engine
	d    int
	ln   []int32 // the engine's column d
	via  []int32
	ref  []int32 // path: arena index, noPath, or a prev leaf
	hOff []int32 // hop set: hopBuf[hOff:hOff+hCnt]; hCnt -1 means prev's NextHops
	hCnt []int32

	arena  []run
	hopBuf []int32 // committed hop sets, as inbound slots
	hops   []int32 // the hop set under evaluation

	mark        []uint32
	epoch       uint32
	cands, next []int32
	pend        []pending
}

// pending is one write of the current round, committed once the round's
// recomputations are done.
type pending struct{ x, ln, ref, hOff, hCnt int32 }

// destPool hands each destination its working memory; a pool rather than a
// per-worker value because parallel.ForEach owns the workers.
var destPool = sync.Pool{New: func() any { return new(dest) }}

// converge runs every destination to its fixpoint and builds the RIB. A nil
// prev is a cold start; otherwise entries start from prev's rows and round 1
// recomputes the dirty nodes.
func (n *Network) converge(prev [][]Route, dirty []int32) (Rib, int, error) {
	nr := n.Topo.N()
	nn := nr * n.K
	e := &engine{n: n, nr: nr, nn: nn, k: n.K, prev: prev, dirty: dirty,
		ln: make([]int32, nn*nr), via: make([]int32, nn*nr),
		words:  (len(n.inAdv) + 63) / 64,
		rounds: make([]int, nr), pathN: make([]int, nr), hopN: make([]int, nr),
		maxRounds: 4*n.K*nr + 16}
	e.hopBits = make([]uint64, e.words*nr)
	err := parallel.ForEach(0, nr, func(d int) error {
		s := destPool.Get().(*dest)
		err := s.converge(e, d)
		s.e, s.ln, s.via = nil, nil, nil // pooled scratch must not pin this call
		destPool.Put(s)
		return err
	})
	if err != nil {
		return nil, e.maxRounds, err
	}
	rounds := 1
	for _, r := range e.rounds {
		rounds = max(rounds, r)
	}
	return e.buildRib(), rounds, nil
}

// converge runs destination d's rounds to its fixpoint and exports the
// result into the engine's column d.
func (s *dest) converge(e *engine, d int) error {
	nn := e.nn
	s.e, s.d = e, d
	s.ln, s.via = e.ln[d*nn:(d+1)*nn], e.via[d*nn:(d+1)*nn]
	if len(s.ref) != nn {
		s.ref, s.hOff, s.hCnt = make([]int32, nn), make([]int32, nn), make([]int32, nn)
		s.mark, s.epoch = make([]uint32, nn), 0
	}
	s.arena = append(s.arena[:0], run{int32(d), 1, noPath, 1 << (d & 63)})
	s.hopBuf = s.hopBuf[:0]
	for x := 0; x < nn; x++ {
		s.ln[x], s.via[x], s.ref[x], s.hCnt[x] = inf, viaNone, noPath, 0
		if e.prev != nil {
			if r := &e.prev[x][d]; r.ASPathLen >= 0 {
				s.ln[x], s.via[x], s.ref[x], s.hCnt[x] = int32(r.ASPathLen), viaPrev, -2-int32(x), -1
			}
		}
	}
	// Host interfaces live in VRF K: originate the rack prefix.
	origin := int32(d*e.k + e.k - 1)
	s.ln[origin], s.via[origin], s.ref[origin], s.hCnt[origin] = 1, viaOrigin, 0, 0

	s.cands = s.cands[:0]
	n := e.n
	if e.prev == nil {
		// From a cold start only the origin holds a route, so round 1 can
		// move only the origin's dependents.
		s.cands = append(s.cands, n.outDeps[n.outStart[origin]:n.outStart[origin+1]]...)
	} else {
		for _, x := range e.dirty {
			if x != origin {
				s.cands = append(s.cands, x)
			}
		}
	}
	for round := 1; ; round++ {
		if round > e.maxRounds {
			return fmt.Errorf("bgp: no convergence after %d rounds", e.maxRounds)
		}
		s.pend = s.pend[:0]
		for _, x := range s.cands {
			s.recompute(x)
		}
		if len(s.pend) == 0 {
			e.rounds[d] = round
			break
		}
		// Only entries reading a changed node can move next round: the
		// out-dependents of each write, mark-deduplicated.
		if s.epoch++; s.epoch == 0 {
			clear(s.mark)
			s.epoch = 1
		}
		s.next = s.next[:0]
		for _, p := range s.pend {
			s.ln[p.x], s.ref[p.x], s.hOff[p.x], s.hCnt[p.x] = p.ln, p.ref, p.hOff, p.hCnt
			for _, y := range n.outDeps[n.outStart[p.x]:n.outStart[p.x+1]] {
				if y != origin && s.mark[y] != s.epoch {
					s.mark[y] = s.epoch
					s.next = append(s.next, y)
				}
			}
		}
		s.cands, s.next = s.next, s.cands
	}
	s.export()
	return nil
}

// recompute evaluates entry x against the previous round's state and queues
// a write if its length, hop set or path changed. The best path stays
// virtual — (advertiser router, prepend count, advertiser's path) — until it
// is committed as one arena node.
func (s *dest) recompute(x int32) {
	n := s.e.n
	router := x / int32(s.e.k)
	best, bestAdv := int32(inf), viaNone
	var bestR, bestT int32
	s.hops = s.hops[:0]
	for i := n.inStart[x]; i < n.inStart[x+1]; i++ {
		a := n.inAdv[i]
		la := s.ln[a]
		if la >= inf {
			continue
		}
		// The sender prepends its own AS 1+Prepend times.
		c := la + n.inCost[i]
		if c > best {
			continue // cannot win or tie; the loop check is moot
		}
		r := n.inRouter[i]
		if r == router || s.pathHas(s.ref[a], router) {
			continue // AS-path loop
		}
		if c < best {
			best, bestAdv, bestR, bestT = c, a, r, n.inCost[i]
			s.hops = append(s.hops[:0], i)
			continue
		}
		// Inbound sessions are advertiser-sorted, so a tie from another
		// router starts with a larger router id and never wins the
		// lexicographic tie-break; only the same router's other VRFs need
		// a walk.
		if r == bestR && s.cmpPaths(r, n.inCost[i], s.ref[a], bestR, bestT, s.ref[bestAdv]) < 0 {
			bestAdv, bestT = a, n.inCost[i]
		}
		s.hops = append(s.hops, i)
	}

	sameHops := s.sameHops(x)
	samePath := best >= inf
	if !samePath && best == s.ln[x] {
		if o := s.ref[x]; o >= 0 && s.arena[o].router == bestR && s.arena[o].times == bestT && s.arena[o].parent == s.ref[bestAdv] {
			samePath = true
		} else {
			samePath = s.cmpPaths(bestR, bestT, s.ref[bestAdv], 0, 0, o) == 0
		}
	}
	if best == s.ln[x] && sameHops && samePath {
		if s.via[x] != viaPrev {
			s.via[x] = bestAdv // the same path, possibly through another advertiser
		}
		return
	}
	s.via[x] = bestAdv
	p := pending{x: x, ln: best, ref: s.ref[x], hOff: s.hOff[x], hCnt: s.hCnt[x]}
	switch {
	case best >= inf:
		p.ref = noPath
	case !samePath || best != s.ln[x]:
		p.ref = int32(len(s.arena))
		s.arena = append(s.arena, s.newRun(bestR, bestT, s.ref[bestAdv]))
	}
	if !sameHops || p.hCnt < 0 {
		p.hOff, p.hCnt = int32(len(s.hopBuf)), int32(len(s.hops))
		s.hopBuf = append(s.hopBuf, s.hops...)
	}
	s.pend = append(s.pend, p)
}

// sameHops reports whether the hop set under evaluation equals x's.
func (s *dest) sameHops(x int32) bool {
	if s.hCnt[x] < 0 {
		old := s.e.prev[x][s.d].NextHops
		if len(old) != len(s.hops) {
			return false
		}
		for j, i := range s.hops {
			if int32(s.e.n.nodeIdx(old[j])) != s.e.n.inAdv[i] {
				return false
			}
		}
		return true
	}
	old := s.hopBuf[s.hOff[x] : s.hOff[x]+s.hCnt[x]]
	if len(old) != len(s.hops) {
		return false
	}
	for j, i := range s.hops {
		if old[j] != i {
			return false
		}
	}
	return true
}

// leaf returns the previous ASPath a prev-leaf reference reads.
func (s *dest) leaf(ref int32) []int { return s.e.prev[-2-ref][s.d].ASPath }

// pathHas reports whether router r is on the path at ref.
func (s *dest) pathHas(ref, r int32) bool {
	if ref >= 0 && s.arena[ref].routers&(1<<(r&63)) == 0 {
		return false
	}
	for ref >= 0 {
		nd := &s.arena[ref]
		if nd.router == r {
			return true
		}
		ref = nd.parent
	}
	if ref < noPath {
		for _, p := range s.leaf(ref) {
			if int32(p) == r {
				return true
			}
		}
	}
	return false
}

// pathCursor reads a path run by run: t more copies of router r, then the
// rest of a prev leaf, then the path at ref.
type pathCursor struct {
	r, t, ref int32
	leaf      []int
}

// advance moves to the next run, reporting false at the end of the path.
func (s *dest) advance(c *pathCursor) bool {
	if len(c.leaf) == 0 && c.ref < noPath {
		c.leaf, c.ref = s.leaf(c.ref), noPath
	}
	switch {
	case len(c.leaf) > 0:
		c.r, c.t, c.leaf = int32(c.leaf[0]), 1, c.leaf[1:]
	case c.ref >= 0:
		nd := &s.arena[c.ref]
		c.r, c.t, c.ref = nd.router, nd.times, nd.parent
	default:
		return false
	}
	return true
}

// cmpPaths compares the paths "ra ta times, then the path at pa" and "rb tb
// times, then the path at pb" lexicographically (a proper prefix sorts
// first), returning -1, 0 or +1.
func (s *dest) cmpPaths(ra, ta, pa, rb, tb, pb int32) int {
	a, b := pathCursor{r: ra, t: ta, ref: pa}, pathCursor{r: rb, t: tb, ref: pb}
	for {
		if a.t == 0 && !s.advance(&a) {
			if b.t == 0 && !s.advance(&b) {
				return 0
			}
			return -1
		}
		if b.t == 0 && !s.advance(&b) {
			return 1
		}
		if a.r != b.r {
			if a.r < b.r {
				return -1
			}
			return 1
		}
		m := min(a.t, b.t)
		a.t -= m
		b.t -= m
	}
}

// export records the destination's hop sets as bits over the inbound-session
// table and counts what buildRib will materialize for it.
func (s *dest) export() {
	set := s.e.hopBits[s.d*s.e.words : (s.d+1)*s.e.words]
	paths, hops := 0, 0
	for x, v := range s.via {
		if v < 0 {
			continue
		}
		paths += int(s.ln[x])
		for _, i := range s.hopBuf[s.hOff[x] : s.hOff[x]+s.hCnt[x]] {
			set[i>>6] |= 1 << (i & 63)
		}
		hops += int(s.hCnt[x])
	}
	s.e.pathN[s.d], s.e.hopN[s.d] = paths, hops
}

// buildRib materializes the converged state from one []Route, one []int and
// one []NodeID, handing out cap-limited slices. A node whose every route is
// still prev's (seeded and never replaced) keeps prev's row itself — Ribs
// are immutable by contract, and prev must be in this package's canonical
// form (as Converge produces) for a shared row to match a fresh build.
func (e *engine) buildRib() Rib {
	nr, nn := e.nr, e.nn
	slot := make([]int32, nn)
	rows := 0
	for x := range slot {
		slot[x] = int32(rows)
		if e.prev != nil && e.unchanged(x) {
			slot[x] = -1
			continue
		}
		rows++
	}
	// pathN and hopN become each column's offsets into the shared arrays;
	// the first nr path slots hold every router's originated path [d].
	paths, hops := nr, 0
	for d := 0; d < nr; d++ {
		paths, e.pathN[d] = paths+e.pathN[d], paths
		hops, e.hopN[d] = hops+e.hopN[d], hops
	}
	routes := make([]Route, rows*nr)
	pathBuf := make([]int, paths)
	hopBuf := make([]NodeID, hops)
	for d := range pathBuf[:nr] {
		pathBuf[d] = d
	}
	_ = parallel.ForEach(0, nr, func(d int) error {
		e.fillColumn(d, slot, routes, pathBuf, hopBuf)
		return nil
	})
	rib := make(Rib, nn)
	for x := 0; x < nn; x++ {
		if slot[x] < 0 {
			rib[e.n.nodeAt(x)] = e.prev[x]
			continue
		}
		lo := int(slot[x]) * nr
		rib[e.n.nodeAt(x)] = routes[lo : lo+nr : lo+nr]
	}
	return rib
}

// fillColumn materializes destination d's routes of every rebuilt row.
func (e *engine) fillColumn(d int, slot []int32, routes []Route, pathBuf []int, hopBuf []NodeID) {
	nr, nn := e.nr, e.nn
	ln, via := e.ln[d*nn:(d+1)*nn], e.via[d*nn:(d+1)*nn]
	set := e.hopBits[d*e.words : (d+1)*e.words]
	po, ho := e.pathN[d], e.hopN[d]
	for x := 0; x < nn; x++ {
		if slot[x] < 0 {
			continue
		}
		rt := &routes[int(slot[x])*nr+d]
		switch via[x] {
		case viaNone:
			*rt = Route{ASPathLen: -1}
			continue
		case viaPrev:
			*rt = e.prev[x][d]
			continue
		case viaOrigin:
			*rt = Route{ASPathLen: 1, ASPath: pathBuf[d : d+1 : d+1]}
			continue
		}
		l := int(ln[x])
		path := pathBuf[po : po+l : po+l]
		po += l
		e.fillPath(path, ln, via, d, int32(x))
		h0 := ho
		for i, end := e.n.inStart[x], e.n.inStart[x+1]; i < end; i++ {
			w := set[i>>6] >> (i & 63)
			if w == 0 {
				i |= 63 // the rest of this word is empty
				continue
			}
			if i += int32(bits.TrailingZeros64(w)); i >= end {
				break
			}
			hopBuf[ho] = e.n.nodeAt(int(e.n.inAdv[i]))
			ho++
		}
		*rt = Route{ASPathLen: l, ASPath: path, NextHops: hopBuf[h0:ho:ho]}
	}
}

// unchanged reports whether every route of node x is still its prev route.
func (e *engine) unchanged(x int) bool {
	for d := 0; d < e.nr; d++ {
		switch e.via[d*e.nn+x] {
		case viaPrev, viaOrigin:
		case viaNone:
			if e.prev[x][d].ASPathLen >= 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// fillPath writes x's final path: its best advertiser's router once per
// unit of session cost, then the advertiser's own path, down to the origin
// or a path kept from prev.
func (e *engine) fillPath(path []int, ln, via []int32, d int, x int32) {
	i := 0
	for {
		switch v := via[x]; v {
		case viaOrigin:
			path[i] = d
			return
		case viaPrev:
			copy(path[i:], e.prev[x][d].ASPath)
			return
		default:
			r := int(v) / e.k
			for t := ln[x] - ln[v]; t > 0; t-- {
				path[i] = r
				i++
			}
			x = v
		}
	}
}

// Distance returns the converged routing distance (AS-path length minus the
// originator entry) from (VRF K, src) to dst's prefix: Theorem 1 says this
// equals max(L, K). It returns -1 if the prefix is unreachable.
func (r Rib) Distance(n *Network, src, dst int) int {
	if src == dst {
		return 0
	}
	e := r[NodeID{src, n.K}][dst]
	if e.ASPathLen < 0 {
		return -1
	}
	return e.ASPathLen - 1
}
