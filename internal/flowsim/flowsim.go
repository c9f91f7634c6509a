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
	"slices"

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

// PathFlow is a long-running flow pinned to a concrete switch path.
type PathFlow struct {
	Src, Dst int   // global server ids
	Path     []int // switch path from Src's rack to Dst's rack (inclusive)
}

// MaxMin returns the max-min fair rate (bits/s) of every flow.
//
// Cost is one adjacency-row scan per path hop to index the instance plus
// O(loaded resources) per filling level, and the number of allocations does
// not depend on the number of flows (DESIGN.md §16).
func MaxMin(g *topology.Graph, flows []PathFlow, cfg Config) ([]float64, error) {
	if cfg.LinkRateBps <= 0 {
		return nil, fmt.Errorf("flowsim: non-positive link rate")
	}
	in, err := newInstance(g, flows, cfg)
	if err != nil {
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
type instance struct {
	cap    []float64 // capacity per resource
	rem    []float64 // capacity not yet handed out
	active []int32   // unfrozen crossings per resource (a flow crossing twice counts twice)

	// Flow i crosses flowRes[flowOff[i]:flowOff[i+1]]; resource r is crossed
	// by resFlows[resOff[r]:resOff[r+1]] — the same entries, inverted.
	flowOff, flowRes []int32
	resOff, resFlows []int32

	loaded []int32 // worklist: resources that may still have active > 0
	sat    []int32 // scratch: resources saturated at the current level
	frozen []bool  // per flow
}

func newInstance(g *topology.Graph, flows []PathFlow, cfg Config) (*instance, error) {
	n, servers := g.N(), g.Servers()
	crossings := 0
	for i := range flows {
		crossings += len(flows[i].Path) + 1
	}
	if crossings > math.MaxInt32 {
		return nil, fmt.Errorf("flowsim: %d flows cross %d resources, more than the index holds", len(flows), crossings)
	}

	off := g.PortOffsets()
	ports := int(off[n])
	in := &instance{cap: make([]float64, ports, ports+2*min(servers, len(flows)))}

	// Host resources, assigned on first use; -1 means not yet.
	hostIDs := make([]int32, 2*servers)
	for h := range hostIDs {
		hostIDs[h] = -1
	}
	hostUp, hostDown := hostIDs[:servers], hostIDs[servers:]
	hostBps := cfg.hostRate()
	host := func(ids []int32, h int) int32 {
		if ids[h] < 0 {
			ids[h] = int32(len(in.cap))
			in.cap = append(in.cap, hostBps)
		}
		return ids[h]
	}

	in.flowOff = make([]int32, len(flows)+1)
	in.flowRes = make([]int32, 0, crossings)
	for i, f := range flows {
		switch {
		case f.Src == f.Dst:
			return nil, fmt.Errorf("flowsim: flow %d: flow from host %d to itself", i, f.Src)
		case len(f.Path) == 0:
			return nil, fmt.Errorf("flowsim: flow %d: flow %d→%d has no path", i, f.Src, f.Dst)
		case f.Src < 0 || f.Src >= servers || f.Dst < 0 || f.Dst >= servers:
			return nil, fmt.Errorf("flowsim: flow %d: hosts %d→%d out of range [0,%d)", i, f.Src, f.Dst, servers)
		case g.RackOf(f.Src) != f.Path[0] || g.RackOf(f.Dst) != f.Path[len(f.Path)-1]:
			return nil, fmt.Errorf("flowsim: flow %d: path %v does not join racks of hosts %d and %d", i, f.Path, f.Src, f.Dst)
		}
		in.flowRes = append(in.flowRes, host(hostUp, f.Src))
		for h := 0; h+1 < len(f.Path); h++ {
			u, v := f.Path[h], f.Path[h+1] // u is in range: a rack, or the previous hop's v
			if v < 0 || v >= n {
				return nil, fmt.Errorf("flowsim: flow %d: path %v names switch %d, out of range [0,%d)", i, f.Path, v, n)
			}
			j := g.Port(u, v, 0)
			if j < 0 {
				return nil, fmt.Errorf("flowsim: flow %d: path %v uses nonexistent link %d→%d", i, f.Path, u, v)
			}
			r := off[u] + int32(j)
			if in.cap[r] <= 0 { // first use: the capacity is not set yet
				in.cap[r] = float64(g.LinkMultiplicity(u, v)) * cfg.LinkRateBps
			}
			in.flowRes = append(in.flowRes, r)
		}
		in.flowRes = append(in.flowRes, host(hostDown, f.Dst))
		in.flowOff[i+1] = int32(len(in.flowRes))
	}

	// Invert flow→resources by counting sort: a resource's share of resFlows
	// is as long as its initial active count.
	nres := len(in.cap)
	in.rem = slices.Clone(in.cap)
	in.active = make([]int32, nres)
	in.resOff = make([]int32, nres+1)
	in.resFlows = make([]int32, len(in.flowRes))
	for _, r := range in.flowRes {
		in.active[r]++
	}
	in.loaded = make([]int32, 0, nres)
	for r, a := range in.active {
		in.resOff[r+1] = in.resOff[r] + a
		if a > 0 {
			in.loaded = append(in.loaded, int32(r))
		}
	}
	next := slices.Clone(in.resOff[:nres]) // write cursor per resource
	for i := range flows {
		for _, r := range in.flowRes[in.flowOff[i]:in.flowOff[i+1]] {
			in.resFlows[next[r]] = int32(i)
			next[r]++
		}
	}
	in.sat = make([]int32, 0, nres)
	in.frozen = make([]bool, len(flows))
	return in, nil
}

// fill runs progressive filling and writes every flow's rate. All unfrozen
// flows have received the same increments since level 0, so one running
// level stands for all of them: a flow's rate is the level at which it
// froze — the same float additions, in the same order, as adding each
// increment to each flow.
//
//lint:hotpath
func (in *instance) fill(rates []float64) {
	const eps = 1e-6
	rem, limit, active, frozen := in.rem, in.cap, in.active, in.frozen
	loaded, sat := in.loaded, in.sat
	level := 0.0
	remaining := len(rates)
	for remaining > 0 {
		// Smallest per-flow headroom across loaded resources; resources the
		// last level unloaded drop out of the worklist on the way.
		inc := math.Inf(1)
		n := 0
		for _, r := range loaded {
			a := active[r]
			if a == 0 {
				continue
			}
			loaded[n] = r
			n++
			if h := rem[r] / float64(a); h < inc {
				inc = h
			}
		}
		loaded = loaded[:n]
		if math.IsInf(inc, 1) {
			break // nothing left limits the remaining flows
		}
		level += inc
		sat = sat[:0]
		for _, r := range loaded {
			rem[r] -= inc * float64(active[r])
			if rem[r] <= eps*limit[r] {
				sat = append(sat, r)
			}
		}
		// Freeze the flows crossing a saturated resource.
		for _, r := range sat {
			for _, i := range in.resFlows[in.resOff[r]:in.resOff[r+1]] {
				if frozen[i] {
					continue
				}
				frozen[i] = true
				rates[i] = level
				for _, x := range in.flowRes[in.flowOff[i]:in.flowOff[i+1]] {
					active[x]--
				}
				remaining--
			}
		}
	}
	if remaining > 0 {
		for i, f := range frozen {
			if !f {
				rates[i] = level
			}
		}
	}
}

// Throughput routes each (client, server) host pair with the given scheme
// and returns the per-flow max-min rates plus their aggregate (bits/s).
// Flow ids are the pair indices, so path selection is deterministic.
func Throughput(g *topology.Graph, scheme routing.Scheme, pairs [][2]int, cfg Config) (rates []float64, aggregate float64, err error) {
	flows := make([]PathFlow, len(pairs))
	for i, p := range pairs {
		srcRack, dstRack := g.RackOf(p[0]), g.RackOf(p[1])
		path := scheme.Path(srcRack, dstRack, uint64(i))
		if path == nil {
			return nil, 0, fmt.Errorf("flowsim: no path between racks %d and %d", srcRack, dstRack)
		}
		flows[i] = PathFlow{Src: p[0], Dst: p[1], Path: path}
	}
	rates, err = MaxMin(g, flows, cfg)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range rates {
		aggregate += r
	}
	return rates, aggregate, nil
}
