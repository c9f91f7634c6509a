package routing

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"spineless/internal/parallel"
	"spineless/internal/topology"
)

// Fib is forwarding state for ECMP or Shortest-Union(K) over a fabric.
//
// It materializes the paper's §4 VRF construction as a K-layer virtual
// graph. Virtual node (layer l, router r) models VRF l+1 on router r; hosts
// sit in VRF K. For every directed physical link u→v the virtual links are
//
//	(VRF K, u) → (VRF i, v)  cost i,  i = 1..K   (path admission)
//	(VRF i, u) → (VRF i+1, v) cost 1,  i < K      (ascent toward delivery)
//	(VRF 1, u) → (VRF 1, v)  cost 1              (transit floor)
//
// with delivery at (VRF K, dst). Equal-cost shortest paths in this graph are
// exactly the Shortest-Union(K) path set: every physical path of length ≤ K
// plus every shortest physical path (Theorem 1: the (VRF K,src)→(VRF K,dst)
// distance is max(L, K) where L is the physical distance). ECMP is the
// degenerate single-layer, unit-cost instance.
type Fib struct {
	g      *topology.Graph
	name   string
	K      int // 0 for plain ECMP
	layers int
	n      int

	// Virtual adjacency in CSR form: rev drives the shortest-path search
	// from the delivery node, fwd the next-hop extraction.
	rev, fwd adjacency

	// cols[dst] is the forwarding column toward destination switch dst.
	cols []column
}

type varc struct {
	to   int32
	cost int8
}

// adjacency is a CSR arc table: vnode u's arcs are arcs[off[u]:off[u+1]].
type adjacency struct {
	off  []int32
	arcs []varc
}

func (a *adjacency) of(u int) []varc { return a.arcs[a.off[u]:a.off[u+1]] }

// column is one destination's forwarding state over every vnode. It is
// immutable once built, so Rebase shares whole columns between FIBs.
type column struct {
	// ctg is the cost-to-go to the delivery node (unreachable at or above it).
	ctg []int32
	// Equal-cost next hops of vnode u are nh[off[u]:off[u+1]], in forward
	// arc order — hashed next-hop choice indexes into that order.
	off, nh []int32
	// npaths counts min-cost virtual paths to the delivery node
	// (saturating), for weighted next-hop selection.
	npaths []int64
}

func (c *column) hops(u int) []int32 { return c.nh[c.off[u]:c.off[u+1]] }

// unreachable is the cost-to-go of a vnode with no path to the delivery
// node; halving MaxInt32 keeps cost+ctg from overflowing.
const unreachable = int32(math.MaxInt32 / 2)

// NewECMP builds standard shortest-path ECMP forwarding state for g.
func NewECMP(g *topology.Graph) *Fib {
	f := &Fib{g: g, name: "ecmp", K: 0, layers: 1, n: g.N()}
	f.buildEdges()
	f.buildAll()
	return f
}

// NewShortestUnion builds Shortest-Union(K) forwarding state for g. K must
// be at least 2 (K=1 is plain ECMP; use NewECMP).
func NewShortestUnion(g *topology.Graph, k int) (*Fib, error) {
	if k < 2 {
		return nil, fmt.Errorf("routing: shortest-union requires K >= 2, got %d", k)
	}
	if k > 120 {
		return nil, fmt.Errorf("routing: K = %d too large", k)
	}
	f := &Fib{g: g, name: fmt.Sprintf("shortest-union(%d)", k), K: k, layers: k, n: g.N()}
	f.buildEdges()
	f.buildAll()
	return f, nil
}

// Name implements Scheme.
func (f *Fib) Name() string { return f.name }

// Graph returns the fabric this FIB routes.
func (f *Fib) Graph() *topology.Graph { return f.g }

func (f *Fib) vnode(layer, router int) int { return layer*f.n + router }
func (f *Fib) router(vn int) int           { return vn % f.n }

// deliveryLayer is the layer hosting servers (VRF K).
func (f *Fib) deliveryLayer() int { return f.layers - 1 }

// pairArcs emits the virtual arcs one occurrence of the directed physical
// adjacency u→w induces — the single source of truth shared by buildEdges
// and Rebase's arc diff.
func (f *Fib) pairArcs(u, w int, emit func(x, y, cost int)) {
	if f.K == 0 {
		emit(f.vnode(0, u), f.vnode(0, w), 1)
		return
	}
	top := f.deliveryLayer()
	// (VRF K, u) → (VRF i, w) cost i.
	for i := 1; i <= f.K; i++ {
		emit(f.vnode(top, u), f.vnode(i-1, w), i)
	}
	// (VRF i, u) → (VRF i+1, w) cost 1 for i < K.
	for l := 0; l < top; l++ {
		emit(f.vnode(l, u), f.vnode(l+1, w), 1)
	}
	// (VRF 1, u) → (VRF 1, w) cost 1.
	emit(f.vnode(0, u), f.vnode(0, w), 1)
}

// eachArc emits every virtual arc in build order: routers ascending, each
// router's neighbors in adjacency order.
func (f *Fib) eachArc(emit func(x, y, cost int)) {
	for u := 0; u < f.n; u++ {
		for _, w := range f.g.Neighbors(u) {
			f.pairArcs(u, w, emit)
		}
	}
}

// buildEdges lays the virtual graph out as two CSR tables: one pass counts
// each vnode's out- and in-arcs, a prefix sum turns the counts into offsets,
// and a second pass drops every arc into its slot — so a vnode's arcs keep
// the order eachArc emits them in.
func (f *Fib) buildEdges() {
	v := f.layers * f.n
	f.fwd.off = make([]int32, v+1)
	f.rev.off = make([]int32, v+1)
	f.eachArc(func(x, y, _ int) {
		f.fwd.off[x+1]++
		f.rev.off[y+1]++
	})
	for u := 0; u < v; u++ {
		f.fwd.off[u+1] += f.fwd.off[u]
		f.rev.off[u+1] += f.rev.off[u]
	}
	f.fwd.arcs = make([]varc, f.fwd.off[v])
	f.rev.arcs = make([]varc, f.rev.off[v])
	fill := make([]int32, 2*v)
	fwdFill, revFill := fill[:v], fill[v:]
	copy(fwdFill, f.fwd.off)
	copy(revFill, f.rev.off)
	f.eachArc(func(x, y, cost int) {
		f.fwd.arcs[fwdFill[x]] = varc{to: int32(y), cost: int8(cost)}
		fwdFill[x]++
		f.rev.arcs[revFill[y]] = varc{to: int32(x), cost: int8(cost)}
		revFill[y]++
	})
}

// buildAll computes per-destination forwarding state. Destinations are
// independent — buildDst(dst) reads only the immutable virtual adjacency and
// its result lands in slot dst of cols — so the loop fans out across CPUs.
// Each destination's search is internally deterministic, which makes the
// assembled FIB bit-identical at any worker count.
func (f *Fib) buildAll() {
	f.cols = make([]column, f.n)
	_ = parallel.ForEach(0, f.n, func(dst int) error {
		f.cols[dst] = f.buildDst(dst)
		return nil
	})
}

// buildScratch is the working memory of one buildDst call. Everything in it
// is overwritten before it is read, so which call used it last never shows
// in a column.
type buildScratch struct {
	ring  [][]int32 // Dial's buckets, indexed by distance mod len(ring)
	nh    []int32   // next hops of every vnode, before the exact-size copy
	order []int32   // reachable vnodes by increasing cost-to-go
	level []int32   // counting-sort histogram over cost-to-go
}

// scratchPool hands buildDst its working memory, so a FIB build allocates per
// destination, not per (destination, vnode). A pool rather than a per-worker
// value because parallel.ForEach owns the workers; scratch holds no result
// state, so reuse order cannot reach the output.
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// buildDst finds every vnode's cost-to-go to the delivery node of dst over
// reversed virtual arcs, then records every arc on an equal-cost shortest
// path and counts the paths through it.
//
// Arc costs are the integers 1..K (1 for ECMP), so the search is Dial's
// bucket queue rather than a heap: while distance d is being settled every
// queued vnode has a tentative distance in (d, d+K], which K+1 buckets
// indexed by distance mod (K+1) hold without collision. A vnode is queued
// again each time its distance improves; the stale copies are skipped when
// their bucket comes up.
func (f *Fib) buildDst(dst int) column {
	v := f.layers * f.n
	target := f.vnode(f.deliveryLayer(), dst)
	s := scratchPool.Get().(*buildScratch)
	defer scratchPool.Put(s)

	head := make([]int32, 2*v+1)
	ctg, off := head[:v:v], head[v:]
	for i := range ctg {
		ctg[i] = unreachable
	}
	ctg[target] = 0
	nring := max(f.K, 1) + 1
	for len(s.ring) < nring {
		s.ring = append(s.ring, nil)
	}
	ring := s.ring[:nring]
	ring[0] = append(ring[0][:0], int32(target))
	far := int32(0) // the largest distance settled
	for d, queued := int32(0), 1; queued > 0; d++ {
		b := d % int32(nring)
		// Every arc costs at least 1, so settling bucket b never appends to it.
		for _, u := range ring[b] {
			if ctg[u] != d {
				continue // superseded by a shorter distance
			}
			far = d
			for _, a := range f.rev.of(int(u)) {
				if nd := d + int32(a.cost); nd < ctg[a.to] {
					ctg[a.to] = nd
					nb := nd % int32(nring)
					ring[nb] = append(ring[nb], a.to)
					queued++
				}
			}
		}
		queued -= len(ring[b])
		ring[b] = ring[b][:0]
	}

	nh := s.nh[:0]
	for u := 0; u < v; u++ {
		if ctg[u] < unreachable && u != target {
			for _, a := range f.fwd.of(u) {
				if ctg[u] == int32(a.cost)+ctg[a.to] {
					nh = append(nh, a.to)
				}
			}
		}
		off[u+1] = int32(len(nh))
	}
	s.nh = nh
	col := column{ctg: ctg, off: off, nh: append([]int32(nil), nh...), npaths: make([]int64, v)}

	// Count min-cost paths: cost-to-go strictly decreases along equal-cost
	// arcs, so processing vnodes by increasing ctg is a topological order. A
	// counting sort over ctg, filled in vnode order, breaks ties on vnode id.
	level := append(s.level[:0], make([]int32, far+2)...) // level[c]: where cost c starts in order
	for _, c := range ctg {
		if c < unreachable {
			level[c+1]++
		}
	}
	for c := int32(0); c <= far; c++ {
		level[c+1] += level[c]
	}
	order := append(s.order[:0], make([]int32, level[far+1])...)
	for u, c := range ctg {
		if c < unreachable {
			order[level[c]] = int32(u)
			level[c]++
		}
	}
	s.level, s.order = level, order
	const saturate = int64(1) << 40
	col.npaths[target] = 1
	for _, u := range order[1:] { // order[0] is the target, the only vnode at 0
		var c int64
		for _, x := range col.hops(int(u)) {
			c += col.npaths[x]
			if c >= saturate {
				c = saturate
				break
			}
		}
		col.npaths[u] = c
	}
	return col
}

// deltaArc is one virtual arc a link change adds to or removes from the
// virtual graph, with the tightness test Rebase runs per destination.
type deltaArc struct {
	x, y    int32
	cost    int32
	removed bool
}

// Rebase builds forwarding state for g2 — the same fabric with some links
// changed — by reusing every per-destination column of this FIB the changes
// provably cannot affect, and rebuilding only the rest. The returned Fib is
// independent of this one for all queries (columns are immutable after
// build; unaffected ones are shared, not copied), and is bit-identical to a
// from-scratch build on g2.
//
// The affectedness test is per destination d, against this FIB's cost-to-go:
// a removed virtual arc x→y matters iff it is tight (ctg[x] == cost+ctg[y] —
// it carries an equal-cost shortest path, so next sets or distances change);
// an added arc matters iff ctg[x] >= cost+ctg[y] (it creates a shorter or
// tying path). If no changed arc passes its test for d, every shortest path
// and tight-arc set for d is untouched and the old column is reused —
// reconvergence work is proportional to the affected region, not the fabric.
//
// The affectedness test has two parts, run against this FIB's cost-to-go.
// First, distance validity: a removed virtual arc x→y matters iff it is
// tight (ctg[x] == cost+ctg[y] — it carried an equal-cost shortest path), an
// added arc iff it strictly improves (ctg[x] > cost+ctg[y]); if neither
// fires, every shortest distance for d is unchanged. Second, order: hashed
// next-hop choice indexes into a vnode's hop run, whose order follows
// adjacency order, and RemoveLink swap-removes — it reorders the endpoint's
// whole neighbor list. So for every router whose adjacency sequence changed,
// the tight-arc sequences at its vnodes are compared between old and new
// adjacency; any difference (content or order, including parallel-trunk
// multiplicity) forces a rebuild. g2 must have the same switch count as the
// original.
func (f *Fib) Rebase(g2 *topology.Graph) (*Fib, error) {
	if g2.N() != f.n {
		return nil, fmt.Errorf("routing: Rebase needs an identical switch set (have %d switches, got %d)", f.n, g2.N())
	}
	nf := &Fib{g: g2, name: f.name, K: f.K, layers: f.layers, n: f.n}
	nf.buildEdges()

	var delta []deltaArc
	var seqVnodes []int32
	for u := 0; u < f.n; u++ {
		old, now := f.g.Neighbors(u), g2.Neighbors(u)
		if sameIntSeq(old, now) {
			continue
		}
		for l := 0; l < f.layers; l++ {
			seqVnodes = append(seqVnodes, int32(f.vnode(l, u)))
		}
		for _, w := range diffOccurrences(old, now) {
			f.pairArcs(u, w, func(x, y, cost int) {
				delta = append(delta, deltaArc{x: int32(x), y: int32(y), cost: int32(cost), removed: true})
			})
		}
		for _, w := range diffOccurrences(now, old) {
			f.pairArcs(u, w, func(x, y, cost int) {
				delta = append(delta, deltaArc{x: int32(x), y: int32(y), cost: int32(cost)})
			})
		}
	}

	nf.cols = make([]column, f.n)
	_ = parallel.ForEach(0, f.n, func(dst int) error {
		if f.dstAffected(nf, dst, delta, seqVnodes) {
			nf.cols[dst] = nf.buildDst(dst)
		} else {
			nf.cols[dst] = f.cols[dst]
		}
		return nil
	})
	return nf, nil
}

func sameIntSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffOccurrences returns the neighbors (one entry per surplus copy) that a
// has more occurrences of than b.
func diffOccurrences(a, b []int) []int {
	counts := map[int]int{}
	for _, w := range a {
		counts[w]++
	}
	for _, w := range b {
		counts[w]--
	}
	var out []int
	for _, w := range a { // iterate a, not the map, for determinism
		if counts[w] > 0 {
			counts[w]--
			out = append(out, w)
		}
	}
	return out
}

// dstAffected reports whether the link changes can alter destination dst's
// forwarding column. The order of checks matters: the sequence comparison
// trusts this FIB's ctg for the new graph, which the distance checks
// establish by returning early when any distance could move.
func (f *Fib) dstAffected(nf *Fib, dst int, delta []deltaArc, seqVnodes []int32) bool {
	ctg := f.cols[dst].ctg
	for _, a := range delta {
		d := a.cost + ctg[a.y] // ctg is capped at MaxInt32/2, no overflow
		if a.removed {
			if ctg[a.x] == d {
				return true
			}
		} else if ctg[a.x] > d {
			return true
		}
	}
	target := int32(f.vnode(f.deliveryLayer(), dst))
	for _, x := range seqVnodes {
		if ctg[x] >= unreachable || x == target {
			continue // buildDst records no next hops here in either build
		}
		oldF, newF := f.fwd.of(int(x)), nf.fwd.of(int(x))
		i := 0
		mismatch := false
		for _, a := range newF {
			if ctg[x] != int32(a.cost)+ctg[a.to] {
				continue
			}
			for i < len(oldF) && ctg[x] != int32(oldF[i].cost)+ctg[oldF[i].to] {
				i++
			}
			if i >= len(oldF) || oldF[i] != a {
				mismatch = true
				break
			}
			i++
		}
		if !mismatch {
			for ; i < len(oldF); i++ {
				if ctg[x] == int32(oldF[i].cost)+ctg[oldF[i].to] {
					mismatch = true
					break
				}
			}
		}
		if mismatch {
			return true
		}
	}
	return false
}

// Distance returns the virtual-graph distance from src's delivery node to
// dst's delivery node: the physical hop distance for ECMP, and max(L, K)
// for Shortest-Union(K) (§4, Theorem 1). It returns -1 if unreachable.
func (f *Fib) Distance(src, dst int) int {
	d := f.cols[dst].ctg[f.vnode(f.deliveryLayer(), src)]
	if d >= unreachable {
		return -1
	}
	return int(d)
}

// Path implements Scheme: hop-by-hop equal-cost selection hashed on flowID.
func (f *Fib) Path(src, dst int, flowID uint64) []int {
	if src == dst {
		return []int{src}
	}
	target := f.vnode(f.deliveryLayer(), dst)
	state := f.vnode(f.deliveryLayer(), src)
	// Every virtual arc costs at least 1, so the cost-to-go bounds the hop
	// count and the path is allocated once.
	col := &f.cols[dst]
	d := col.ctg[state]
	if d >= unreachable {
		return nil
	}
	path := make([]int, 1, d+1)
	path[0] = src
	for hop := 0; state != target; hop++ {
		nh := col.hops(state)
		state = int(nh[hashChoice(flowID, hop, f.router(state), len(nh))])
		path = append(path, f.router(state))
		if hop > f.layers*f.n {
			panic("routing: forwarding walk did not terminate")
		}
	}
	return path
}

// PathSet implements Scheme: it enumerates the admissible physical paths by
// depth-first search over the equal-cost next-hop DAG, rejecting walks that
// revisit a router (BGP's AS-path loop prevention) and deduplicating
// physical paths (beyond distance K a physical path is realizable through
// more than one VRF layer schedule — e.g. 2→1→2→1→2 and 2→1→1→1→2 both
// cost L — which weights forwarding but must not inflate the enumeration).
// maxPaths caps the result; 0 means unlimited.
func (f *Fib) PathSet(src, dst, maxPaths int) [][]int {
	if src == dst {
		return [][]int{{src}}
	}
	target := f.vnode(f.deliveryLayer(), dst)
	start := f.vnode(f.deliveryLayer(), src)
	col := &f.cols[dst]

	var out [][]int
	seen := map[string]bool{}
	onPath := map[int]bool{src: true}
	cur := []int{src}
	var dfs func(state int) bool
	dfs = func(state int) bool {
		if state == target {
			k := physPathKey(cur)
			if !seen[k] {
				seen[k] = true
				out = append(out, append([]int(nil), cur...))
			}
			return maxPaths == 0 || len(out) < maxPaths
		}
		for _, nh := range col.hops(state) {
			r := f.router(int(nh))
			if onPath[r] {
				continue
			}
			onPath[r] = true
			cur = append(cur, r)
			ok := dfs(int(nh))
			cur = cur[:len(cur)-1]
			delete(onPath, r)
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(start)
	return out
}

func physPathKey(p []int) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

// NextHopRouters returns the distinct physical next-hop switches a packet
// at src may use toward dst (layer-collapsed), useful for diagnostics.
func (f *Fib) NextHopRouters(src, dst int) []int {
	if src == dst {
		return nil
	}
	var out []int
	for _, nh := range f.cols[dst].hops(f.vnode(f.deliveryLayer(), src)) {
		// Sets are at most degree·K long, so a scan beats a map.
		if r := f.router(int(nh)); !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// diverse reports whether src has at least two distinct next-hop switches
// toward dst.
func (f *Fib) diverse(src, dst int) bool {
	hops := f.cols[dst].hops(f.vnode(f.deliveryLayer(), src))
	for _, nh := range hops {
		if f.router(int(nh)) != f.router(int(hops[0])) {
			return true
		}
	}
	return false
}

// Weighted wraps a Fib with WCMP-style forwarding: at every hop the next
// hop is chosen with probability proportional to the number of admissible
// min-cost paths through it, instead of uniformly. On fabrics with uneven
// path multiplicity (the §5.1 DRing's supernodes differ by one ToR) uniform
// hashing overloads the sparse directions; weighting restores balance.
// PathSet semantics are identical to the underlying Fib's.
type Weighted struct{ *Fib }

// NewWeighted wraps fib with path-count-weighted hashing.
func NewWeighted(fib *Fib) Weighted { return Weighted{fib} }

// Name implements Scheme.
func (w Weighted) Name() string { return "wcmp(" + w.Fib.Name() + ")" }

// Path implements Scheme with weighted per-hop selection.
func (w Weighted) Path(src, dst int, flowID uint64) []int {
	f := w.Fib
	if src == dst {
		return []int{src}
	}
	target := f.vnode(f.deliveryLayer(), dst)
	state := f.vnode(f.deliveryLayer(), src)
	col := &f.cols[dst]
	d := col.ctg[state]
	if d >= unreachable {
		return nil
	}
	// As in Fib.Path, the cost-to-go bounds the hop count.
	path := make([]int, 1, d+1)
	path[0] = src
	counts := col.npaths
	for hop := 0; state != target; hop++ {
		nh := col.hops(state)
		var total int64
		for _, x := range nh {
			total += counts[x]
		}
		var pick int32
		if total <= 0 {
			pick = nh[hashChoice(flowID, hop, f.router(state), len(nh))]
		} else {
			r := int64(splitmix64(flowID^splitmix64(uint64(hop)<<32|uint64(uint32(f.router(state))))) % uint64(total))
			for _, x := range nh {
				r -= counts[x]
				if r < 0 {
					pick = x
					break
				}
			}
		}
		state = int(pick)
		path = append(path, f.router(state))
		if hop > f.layers*f.n {
			panic("routing: weighted walk did not terminate")
		}
	}
	return path
}

var _ Scheme = Weighted{}

// VNode is a (VRF, router) pair in the virtual forwarding graph. VRF is
// 1-based as in the paper; plain ECMP has a single VRF 1.
type VNode struct {
	VRF    int
	Router int
}

// AppendVirtualNextHops appends the equal-cost next hops at (vrf, router)
// toward dst in the virtual graph to buf and returns the extended slice, for
// cross-validation against the BGP control plane; a caller sweeping every
// (vnode, destination) reuses one buffer. VRFs are 1-based; for ECMP the
// only valid vrf is 1.
func (f *Fib) AppendVirtualNextHops(buf []VNode, vrf, router, dst int) []VNode {
	layer := vrf - 1
	if layer < 0 || layer >= f.layers {
		return buf
	}
	start := len(buf)
next:
	for _, nh := range f.cols[dst].hops(f.vnode(layer, router)) {
		vn := VNode{VRF: int(nh)/f.n + 1, Router: f.router(int(nh))}
		for _, seen := range buf[start:] {
			if seen == vn {
				continue next // parallel links duplicate virtual arcs
			}
		}
		buf = append(buf, vn)
	}
	return buf
}

// K returns the scheme's K (0 for plain ECMP).
func (f *Fib) SchemeK() int { return f.K }

var _ Scheme = (*Fib)(nil)
