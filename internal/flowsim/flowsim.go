// Package flowsim computes max-min fair throughput allocations for
// long-running flows over a fabric — the fluid counterpart of the packet
// simulator, used for the paper's C-S throughput experiments (§6.2), where
// all flows are long-running (as in the Jellyfish methodology [23]).
//
// Each flow occupies its source host's uplink, its destination host's
// downlink, and every directed network link along its switch path. Rates
// are assigned by progressive filling: all flows grow together until some
// resource saturates, flows through it freeze, and the rest keep growing.
package flowsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

// Config sets the fabric's link speeds in bits per second.
type Config struct {
	LinkRateBps float64 // switch-to-switch links
	HostRateBps float64 // server NICs; 0 means same as LinkRateBps
}

// DefaultConfig is the paper's setup: 10 Gbps everywhere (§5.3).
func DefaultConfig() Config { return Config{LinkRateBps: 10e9} }

func (c Config) hostRate() float64 {
	if c.HostRateBps > 0 {
		return c.HostRateBps
	}
	return c.LinkRateBps
}

// check rejects rates the allocator cannot fill: fill's bounds assume every
// capacity is a finite positive number.
func (c Config) check() error {
	if !(c.LinkRateBps > 0) || math.IsInf(c.LinkRateBps, 1) {
		return fmt.Errorf("flowsim: link rate %v is not a finite positive number", c.LinkRateBps)
	}
	if math.IsNaN(c.HostRateBps) || math.IsInf(c.HostRateBps, 0) {
		return fmt.Errorf("flowsim: host rate %v is not finite", c.HostRateBps)
	}
	return nil
}

// PathFlow is a long-running flow pinned to a concrete switch path.
type PathFlow struct {
	Src, Dst int   // global server ids
	Path     []int // switch path from Src's rack to Dst's rack (inclusive)
}

// MaxMin returns the max-min fair rate (bits/s) of every flow.
//
// Cost is a hashed table lookup per path hop, plus one adjacency-row scan
// per distinct link, to index the instance, and a few heap operations per
// resource a filling level visits. The working memory is pooled, so a call
// allocates only the rates it returns once its pool is warm (DESIGN.md §16).
func MaxMin(g *topology.Graph, flows []PathFlow, cfg Config) ([]float64, error) {
	in := instancePool.Get().(*instance)
	defer instancePool.Put(in)
	in.hosts(g)
	return in.maxMin(g, flows, cfg)
}

// maxMin is MaxMin in in's working memory, once in.hosts(g) has run.
func (in *instance) maxMin(g *topology.Graph, flows []PathFlow, cfg Config) ([]float64, error) {
	if err := in.index(g, flows, cfg); err != nil {
		return nil, err
	}
	rates := make([]float64, len(flows))
	in.fill(rates)
	return rates, nil
}

// instance is one max-min problem in index form. A resource is anything
// with a capacity: a directed network link (parallel copies aggregated) or
// a host's uplink or downlink. The link u→v is the topology port of its
// first copy in u's adjacency row (Graph.PortOffsets); ports of further
// copies stay unused. Host resources follow the ports in the order the flow
// list first uses them — so the numbering is a function of the graph and
// the flow list alone.
//
// Every slice is working memory that the next call overwrites before it
// reads it, so an instance goes back to instancePool after each call.
type instance struct {
	cap    []float64 // capacity per resource
	rem    []float64 // capacity not yet handed out, as of the resource's last sync
	active []int32   // unfrozen crossings per resource (a flow crossing twice counts twice)

	// Flow i crosses flowRes[flowOff[i]:flowOff[i+1]]; resource r is crossed
	// by resFlows[resOff[r]:resOff[r+1]] — the same entries, inverted.
	flowOff, flowRes []int32
	resOff, resFlows []int32

	portOff []int32 // Graph.PortOffsets
	rackOf  []int32 // server → its rack's switch id
	hostIDs []int32 // uplink then downlink resource per server; -1 before first use

	// links maps the directed link u→v to its resource by open addressing:
	// a power-of-two table at least twice the port count, probed linearly
	// from a Fibonacci hash of u·N+v. linkUsed lists the slots the current
	// call filled; index empties exactly those before it returns, so every
	// slot is empty between calls.
	links     []linkSlot
	linkShift uint // 64 − log₂ len(links)
	linkUsed  []int32

	// decLog[resOff[r]:resOff[r+1]] is r's decrement log: the level of each
	// decrement of active[r], oldest first. Each crossing is decremented at
	// most once, so the log fits in the slots resFlows reserves for r.
	decLog []int32
	heap   []pending
	incs   []float64 // the increment of every level so far
	levels []float64 // levels[j]: the level after j increments
	visit  []int32   // resources the current level visits
	frozen []bool    // per flow

	// Throughput's routing scratch: every path back to back, and where each
	// ends.
	paths []int
	ends  []int
	flows []PathFlow
}

// instancePool hands MaxMin and Throughput their working memory, following
// routing.Fib.buildAll's convention: an instance holds no result state, so
// which call used it last never shows in a rate.
var instancePool = sync.Pool{New: func() any { return new(instance) }}

// resize returns s with length n, reusing its array when it is long enough.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// linkSlot is one entry of instance.links: the link u→v and its resource r.
// r is a port of u, off[u] ≤ r < off[u+1], so the slot need not store u.
type linkSlot struct {
	v1 int32 // v+1; 0 marks an empty slot
	r  int32
}

// hosts fills the server→rack table for g and marks every host resource
// unassigned, in one pass over the servers. index and Throughput read both.
func (in *instance) hosts(g *topology.Graph) {
	servers := g.Servers()
	rackOf, hostIDs := resize(in.rackOf, servers), resize(in.hostIDs, 2*servers)
	for v := range g.N() {
		lo, hi := g.ServersOf(v)
		for h := lo; h < hi; h++ {
			rackOf[h] = int32(v)
			hostIDs[h], hostIDs[servers+h] = -1, -1
		}
	}
	in.rackOf, in.hostIDs = rackOf, hostIDs
}

// link returns the resource of the directed link u→v, or -1 when g has no
// such link. Its first use in a call scans u's adjacency row once for the
// first copy's port and the multiplicity, and sets the capacity; later uses
// hit the table.
func (in *instance) link(g *topology.Graph, u, v int, rate float64) int32 {
	lo, hi := in.portOff[u], in.portOff[u+1]
	mask := len(in.links) - 1
	s := int(((uint64(u)*uint64(g.N()) + uint64(v)) * 0x9e3779b97f4a7c15) >> in.linkShift)
	for ; in.links[s].v1 != 0; s = (s + 1) & mask {
		if e := in.links[s]; int(e.v1) == v+1 && lo <= e.r && e.r < hi {
			return e.r
		}
	}
	first, m := -1, 0
	for j, w := range g.Neighbors(u) {
		if w == v {
			if m == 0 {
				first = j
			}
			m++
		}
	}
	if m == 0 {
		return -1
	}
	r := lo + int32(first)
	in.cap[r] = float64(float64(m) * rate)
	in.links[s] = linkSlot{v1: int32(v + 1), r: r}
	in.linkUsed = append(in.linkUsed, int32(s))
	return r
}

// clearLinks empties the slots of in.links that this call filled.
func (in *instance) clearLinks() {
	for _, s := range in.linkUsed {
		in.links[s] = linkSlot{}
	}
	in.linkUsed = in.linkUsed[:0]
}

// index checks cfg and flows and builds the index form of the problem in
// in's arenas. in.hosts(g) must have run first.
func (in *instance) index(g *topology.Graph, flows []PathFlow, cfg Config) error {
	if err := cfg.check(); err != nil {
		return err
	}
	n, servers := g.N(), g.Servers()
	crossings := 0
	for i := range flows {
		crossings += len(flows[i].Path) + 1
	}
	if crossings > math.MaxInt32 {
		return fmt.Errorf("flowsim: %d flows cross %d resources, more than the index holds", len(flows), crossings)
	}

	off := g.AppendPortOffsets(in.portOff[:0])
	in.portOff = off
	ports := int(off[n])
	in.cap = slices.Grow(in.cap[:0], ports+2*min(servers, len(flows)))[:ports]
	clear(in.cap)

	// Every slot is empty between calls, so a table a larger fabric left
	// behind is reused as an empty shorter view.
	lg := uint(bits.Len(uint(max(2*ports-1, 0))))
	in.links, in.linkShift = resize(in.links, 1<<lg), 64-lg
	defer in.clearLinks()

	// Host resources, assigned on first use; hosts reset them.
	hostUp, hostDown := in.hostIDs[:servers], in.hostIDs[servers:]
	hostBps := cfg.hostRate()
	host := func(ids []int32, h int) int32 {
		if ids[h] < 0 {
			ids[h] = int32(len(in.cap))
			in.cap = append(in.cap, hostBps)
		}
		return ids[h]
	}

	in.flowOff = resize(in.flowOff, len(flows)+1)
	in.flowOff[0] = 0
	in.flowRes = slices.Grow(in.flowRes[:0], crossings)
	for i, f := range flows {
		switch {
		case f.Src == f.Dst:
			return fmt.Errorf("flowsim: flow %d: flow from host %d to itself", i, f.Src)
		case len(f.Path) == 0:
			return fmt.Errorf("flowsim: flow %d: flow %d→%d has no path", i, f.Src, f.Dst)
		case f.Src < 0 || f.Src >= servers || f.Dst < 0 || f.Dst >= servers:
			return fmt.Errorf("flowsim: flow %d: hosts %d→%d out of range [0,%d)", i, f.Src, f.Dst, servers)
		case int(in.rackOf[f.Src]) != f.Path[0] || int(in.rackOf[f.Dst]) != f.Path[len(f.Path)-1]:
			return fmt.Errorf("flowsim: flow %d: path %v does not join racks of hosts %d and %d", i, f.Path, f.Src, f.Dst)
		}
		in.flowRes = append(in.flowRes, host(hostUp, f.Src))
		for h := 0; h+1 < len(f.Path); h++ {
			u, v := f.Path[h], f.Path[h+1] // u is in range: a rack, or the previous hop's v
			if v < 0 || v >= n {
				return fmt.Errorf("flowsim: flow %d: path %v names switch %d, out of range [0,%d)", i, f.Path, v, n)
			}
			r := in.link(g, u, v, cfg.LinkRateBps)
			if r < 0 {
				return fmt.Errorf("flowsim: flow %d: path %v uses nonexistent link %d→%d", i, f.Path, u, v)
			}
			in.flowRes = append(in.flowRes, r)
		}
		in.flowRes = append(in.flowRes, host(hostDown, f.Dst))
		in.flowOff[i+1] = int32(len(in.flowRes))
	}

	// Invert flow→resources by counting sort: a resource's share of resFlows
	// is as long as its initial active count. active serves as the write
	// cursor (counting down to 0) and is then set back from the offsets.
	nres := len(in.cap)
	in.rem = append(in.rem[:0], in.cap...)
	active := resize(in.active, nres)
	clear(active)
	for _, r := range in.flowRes {
		active[r]++
	}
	resOff := resize(in.resOff, nres+1)
	resOff[0] = 0
	for r, a := range active {
		resOff[r+1] = resOff[r] + a
	}
	resFlows := resize(in.resFlows, len(in.flowRes))
	for i := range flows {
		for _, r := range in.flowRes[in.flowOff[i]:in.flowOff[i+1]] {
			resFlows[resOff[r+1]-active[r]] = int32(i)
			active[r]--
		}
	}
	for r := range active {
		active[r] = resOff[r+1] - resOff[r]
	}
	in.active, in.resOff, in.resFlows = active, resOff, resFlows
	in.decLog = resize(in.decLog, len(resFlows))
	in.frozen = resize(in.frozen, len(flows))
	clear(in.frozen)
	return nil
}

// pending is a loaded resource waiting in fill's heap.
type pending struct {
	key float64 // lower bound, up to fill's slack, on the level at which r can saturate or set the increment
	r   int32
	lvl int32 // levels applied to rem[r]
	act int32 // active[r] when rem[r] was last synced
}

// eps is the saturation tolerance: a resource whose remaining capacity is at
// most eps·cap is full.
const eps = 1e-6

// keyOf is the level at which r, synced at level with rem left and act
// crossings active, would reach eps·cap in exact arithmetic if act never
// fell. Fewer active crossings only push that level later (fill's comment).
func keyOf(level, rem, capacity float64, act int32) float64 {
	return level + (rem-float64(eps*capacity))/float64(act)
}

// fill runs progressive filling and writes every flow's rate.
//
// All unfrozen flows have received the same increments since level 0, so
// one running level stands for all of them: a flow's rate is the level at
// which it froze — the same float additions, in the same order, as adding
// each increment to each flow.
//
// A level's increment is the smallest headroom rem[r]/active[r] over the
// loaded resources, and the level saturates every loaded r whose rem, less
// increment × active, falls to eps·cap or below. Few resources matter to a
// level, so the loaded ones wait in a min-heap keyed by keyOf at their last
// sync, and a level pops only those with key ≤ level + best + slack, where
// best is the smallest exact headroom popped so far. A popped resource first
// replays the levels it missed — rem -= inc × active for each, in level
// order, with that level's active count read from its decrement log — so its
// rem is the one an eager loop would hold. Most pops come from keys that
// went stale as flows froze elsewhere; for those, bound first tries a
// tighter key from the log alone and sends the resource back to wait.
//
// Why an unpopped resource r can neither set the increment nor saturate.
// Say r was synced after s levels with rem_s left, a active crossings and
// key K; this is level k. In exact arithmetic the levels s..k-1 took at most
// a·D from rem_s, where D is their increments' sum (active only falls), so
// rem_k ≥ rem_s - a·D; and r setting the increment (inc = rem_k/a_k) or
// saturating (inc·a_k ≥ rem_k - eps·cap) both need inc ≥ (rem_k - eps·cap)/a_k
// ≥ (rem_s - eps·cap)/a - D, as a_k ≤ a and rem_k > eps·cap. So
// level_k + inc ≥ level_s + (rem_s - eps·cap)/a = K. In floating point every
// quantity here is at most U = 2·(largest capacity), and each rounding is at
// most 2⁻⁵³·U: three per level (the product, the subtraction and the level
// sum) plus a dozen in forming K, the headroom and the comparison. So
// slack = (4k + 16)·2⁻⁵³·U covers them with room to spare, for any k ≥ s.
// At paper scale slack stays below 1e-3 bits/s, against headrooms of
// megabits. The argument needs finite capacities, which Config.check
// ensures.
func (in *instance) fill(rates []float64) {
	rem, limit, active, frozen := in.rem, in.cap, in.active, in.frozen
	resOff, resFlows, decLog := in.resOff, in.resFlows, in.decLog
	h := in.heap[:0]
	capMax := 0.0
	for r, a := range active {
		if a > 0 {
			h = append(h, pending{key: keyOf(0, rem[r], limit[r], a), r: int32(r), act: a})
			capMax = max(capMax, limit[r])
		}
	}
	for i := (len(h) - 2) / arity; i >= 0; i-- {
		siftDown(h, i)
	}
	ulp := float64(2*capMax) * 0x1p-53
	incs, levels, visit := in.incs[:0], append(in.levels[:0], 0), in.visit[:0]

	level := 0.0
	remaining := len(rates)
	for k := int32(0); remaining > 0; k++ {
		slack := float64(float64(4*int64(k)+16) * ulp)
		inc := math.Inf(1)
		visit = visit[:0]
		for len(h) > 0 && h[0].key <= level+inc+slack {
			p := h[0]
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftDown(h, 0)
			r := p.r
			if active[r] == 0 {
				continue // every crossing froze elsewhere; nothing reads r again
			}
			if active[r] < p.act {
				// Flows through r froze since its sync, so its key
				// undershoots. A bound from the decrement log may show that r
				// can wait without a replay.
				if key := in.bound(p, k, levels, ulp); key > level+inc+slack {
					p.key = key
					h = append(h, p)
					siftUp(h, len(h)-1)
					continue
				}
			}
			// Replay levels p.lvl..k-1. Decrements logged at level j take
			// effect from level j+1.
			x, a := rem[r], p.act
			next, end := resOff[r+1]-p.act, resOff[r+1]-active[r]
			for j := p.lvl; j < k; j++ {
				for next < end && decLog[next] < j {
					next++
					a--
				}
				x -= float64(incs[j] * float64(a))
			}
			rem[r] = x
			if hr := x / float64(active[r]); hr < inc {
				inc = hr
			}
			visit = append(visit, r)
		}
		if len(visit) == 0 {
			break // nothing left limits the remaining flows
		}
		level += inc
		incs, levels = append(incs, inc), append(levels, level)
		for _, r := range visit {
			rem[r] -= float64(inc * float64(active[r]))
		}
		// Freeze the flows crossing a saturated resource. Every subtraction
		// above used the level's active counts, so freezing comes after.
		for _, r := range visit {
			if rem[r] > float64(eps*limit[r]) {
				continue
			}
			for _, i := range resFlows[resOff[r]:resOff[r+1]] {
				if frozen[i] {
					continue
				}
				frozen[i] = true
				rates[i] = level
				for _, x := range in.flowRes[in.flowOff[i]:in.flowOff[i+1]] {
					active[x]--
					decLog[resOff[x+1]-active[x]-1] = k
				}
				remaining--
			}
		}
		// The visited resources are synced through level k; those still
		// loaded wait again.
		for _, r := range visit {
			if a := active[r]; a > 0 {
				h = append(h, pending{key: keyOf(level, rem[r], limit[r], a), r: r, lvl: k + 1, act: a})
				siftUp(h, len(h)-1)
			}
		}
	}
	in.heap, in.incs, in.levels, in.visit = h, incs, levels, visit
}

// bound is a new key for p, a resource synced after p.lvl levels whose
// active count has fallen since, found at level k without replaying: it
// charges each stretch of levels between logged decrements at that
// stretch's active count times the stretch's level difference, then takes
// keyOf from level k. Each difference may be off from the increments it
// sums by one rounding per level, and p.act multiplies that, so the key
// subtracts p.act·(k - p.lvl + 4·decrements + 16) rounding units on top of
// fill's slack.
func (in *instance) bound(p pending, k int32, levels []float64, ulp float64) float64 {
	r := p.r
	x, a, b := in.rem[r], p.act, p.lvl
	for next, end := in.resOff[r+1]-p.act, in.resOff[r+1]-in.active[r]; next < end; next++ {
		m := in.decLog[next] + 1 // the decrement takes effect from level m
		x -= float64(float64(a) * (levels[m] - levels[b]))
		a, b = a-1, m
	}
	x -= float64(float64(a) * (levels[k] - levels[b]))
	margin := float64(float64(int64(p.act)*int64(k-p.lvl+4*(p.act-a)+16)) * ulp)
	return keyOf(levels[k], x, in.cap[r], a) - margin
}

// fill's heap is 4-ary: children of i are 4i+1..4i+4. It is half as deep
// as a binary heap, and a sift-down's four sibling keys share a cache line
// or two, so a pop costs fewer moves for a few more comparisons. Ties may
// pop in another order than a binary heap's, which the rates cannot show
// (DESIGN.md §16, observation 3).
const arity = 4

func siftUp(h []pending, i int) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if h[p].key <= x.key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func siftDown(h []pending, i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := arity*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < min(c+arity, len(h)); j++ {
			if h[j].key < h[m].key {
				m = j
			}
		}
		if x.key <= h[m].key {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// Throughput routes each (client, server) host pair with the given scheme
// and returns the per-flow max-min rates plus their aggregate (bits/s).
// Flow ids are the pair indices, so path selection is deterministic. Every
// path is appended to one pooled arena, and both racks of a pair come from
// the pooled server→rack table.
func Throughput(g *topology.Graph, scheme routing.Scheme, pairs [][2]int, cfg Config) (rates []float64, aggregate float64, err error) {
	in := instancePool.Get().(*instance)
	defer instancePool.Put(in)
	in.hosts(g)
	servers := g.Servers()
	paths, ends := in.paths[:0], resize(in.ends, len(pairs))
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= servers || p[1] < 0 || p[1] >= servers {
			return nil, 0, fmt.Errorf("flowsim: pair %d: hosts %d→%d out of range [0,%d)", i, p[0], p[1], servers)
		}
		srcRack, dstRack := int(in.rackOf[p[0]]), int(in.rackOf[p[1]])
		start := len(paths)
		paths = scheme.AppendPath(paths, srcRack, dstRack, uint64(i))
		if len(paths) == start {
			return nil, 0, fmt.Errorf("flowsim: no path between racks %d and %d", srcRack, dstRack)
		}
		ends[i] = len(paths)
	}
	flows := resize(in.flows, len(pairs))
	start := 0
	for i, p := range pairs {
		flows[i] = PathFlow{Src: p[0], Dst: p[1], Path: paths[start:ends[i]:ends[i]]}
		start = ends[i]
	}
	in.paths, in.ends, in.flows = paths, ends, flows
	if rates, err = in.maxMin(g, flows, cfg); err != nil {
		return nil, 0, err
	}
	for _, r := range rates {
		aggregate += r
	}
	return rates, aggregate, nil
}
