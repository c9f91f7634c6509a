package main

import (
	"fmt"

	"spineless/internal/bgp"
	"spineless/internal/core"
	"spineless/internal/routing"
	"spineless/internal/topology"
)

// fabric-build: every round builds from nothing the §5.1 trio, the three
// bake-off fabrics, the FIBs, fresh KSP and VLB path sets, the native
// routings of De Bruijn and RNG, and the BGP/VRF control plane through
// convergence, verification and one trunk failure. Its set-up is one such
// pass — what a process that needs every artefact once pays at start — so
// setup_s is never a timer reading of nothing.
var fabricBuild = &workloadDef{
	name:      "fabric-build",
	workUnit:  "artefacts built",
	setupReps: 30,
	setup:     setupFabricBuild,
}

// fabricRound is the state one round's steps hand to each other; the first
// step replaces it, so nothing survives from round to round.
type fabricRound struct {
	seed  int64
	small bool
	// band is the fixed set of rack-pair offsets path sets are built over.
	band int

	fs            *core.FabricSet
	debruijn, rng *topology.Graph
	su2           *routing.Fib
	net           *bgp.Network
	rib           bgp.Rib
}

type fabricDigest struct {
	Name           string
	Switches       int
	Links, Servers int
}

func digestGraph(g *topology.Graph) fabricDigest {
	return fabricDigest{g.Name, g.N(), g.Links(), g.Servers()}
}

func setupFabricBuild(opt options, st *setupTimer) (*instance, error) {
	seed, small := opt.seed, opt.small
	r := &fabricRound{seed: seed, small: small, band: 1 + int(uint64(subSeed(seed, 300))%7)}
	inst := &instance{close: func() error { return nil }}
	inst.layers = func(v *traceView) map[string]float64 {
		return fabricLayers(v, float64(len(r.rackPairs(r.fs.DRing))))
	}
	add := func(name, span string, run func(sp ref) (stepResult, error)) {
		inst.steps = append(inst.steps, step{name: name, span: span, allocs: true, run: run})
	}

	add("trio", "topology.build", func(ref) (stepResult, error) {
		// Drop last round's artefacts first so a stale one cannot be reused.
		*r = fabricRound{seed: r.seed, small: r.small, band: r.band}
		fs, err := buildTrio(r.seed, r.small)
		if err != nil {
			return stepResult{}, err
		}
		r.fs = fs
		links := fs.LeafSpine.Links() + fs.RRG.Links() + fs.DRing.Links()
		return stepResult{
			digest: []fabricDigest{digestGraph(fs.LeafSpine), digestGraph(fs.RRG), digestGraph(fs.DRing)},
			work:   3, count: int64(links),
		}, nil
	})
	for i, name := range core.FlatFabricNames {
		name, fabricSeed := name, subSeed(seed, 310+i)
		add(name, "topology.build", func(ref) (stepResult, error) {
			g, err := core.ExtraFabric(r.fs, name, fabricSeed)
			if err != nil {
				return stepResult{}, err
			}
			if !g.Connected() {
				return stepResult{}, fmt.Errorf("%s fabric is not connected", name)
			}
			switch name {
			case "debruijn":
				r.debruijn = g
			case "rng":
				r.rng = g
			}
			return stepResult{digest: digestGraph(g), work: 1, count: int64(g.Links())}, nil
		})
	}

	add("ecmp DRing+RRG", "routing.fib_build", func(ref) (stepResult, error) {
		a, b := routing.NewECMP(r.fs.DRing), routing.NewECMP(r.fs.RRG)
		return stepResult{digest: []int{r.fibSum(a), r.fibSum(b)}, work: 2}, nil
	})
	su := func(label string, g func() *topology.Graph, k int, keep bool) {
		add(label, "routing.fib_build", func(ref) (stepResult, error) {
			fib, err := routing.NewShortestUnion(g(), k)
			if err != nil {
				return stepResult{}, err
			}
			if keep {
				r.su2 = fib
			}
			return stepResult{digest: r.fibSum(fib), work: 1}, nil
		})
	}
	su("su2 DRing", func() *topology.Graph { return r.fs.DRing }, 2, true)
	su("su2 RRG", func() *topology.Graph { return r.fs.RRG }, 2, false)
	su("su3 DRing", func() *topology.Graph { return r.fs.DRing }, 3, false)

	add("ksp4 path sets", "routing.ksp_pathset", func(ref) (stepResult, error) {
		ksp, err := routing.NewKSP(r.fs.DRing, 4)
		if err != nil {
			return stepResult{}, err
		}
		return r.bandPaths(ksp, 0)
	})
	add("vlb path sets", "routing.vlb_pathset", func(ref) (stepResult, error) {
		return r.bandPaths(routing.NewVLB(r.fs.DRing), 8)
	})
	add("selfroute all pairs", "routing.native_path", func(ref) (stepResult, error) {
		s, err := routing.NewDeBruijn(r.debruijn)
		if err != nil {
			return stepResult{}, err
		}
		return allPairs(r.debruijn, s)
	})
	add("spvlb all pairs", "routing.native_path", func(ref) (stepResult, error) {
		return allPairs(r.rng, routing.NewSPVLB(r.rng))
	})

	add("bgp build", "bgp.build", func(ref) (stepResult, error) {
		net, err := bgp.Build(r.fs.DRing, 2)
		if err != nil {
			return stepResult{}, err
		}
		r.net = net
		return stepResult{digest: len(net.Sessions), work: 1}, nil
	})
	add("bgp converge", "bgp.converge", func(ref) (stepResult, error) {
		rib, rounds, err := r.net.Converge()
		if err != nil {
			return stepResult{}, err
		}
		r.rib = rib
		return stepResult{digest: []int{len(rib), rounds, r.ribSum(r.net, rib)}, work: 1, count: int64(rounds)}, nil
	})
	add("bgp verify", "bgp.verify", func(ref) (stepResult, error) {
		if err := bgp.VerifyTheorem1(r.net, r.rib); err != nil {
			return stepResult{}, err
		}
		if err := bgp.CrossCheckFib(r.net, r.rib, r.su2, true); err != nil {
			return stepResult{}, err
		}
		return stepResult{digest: "theorem 1 and FIB cross-check hold", work: 1}, nil
	})
	add("bgp trunk failure", "bgp.reconverge", func(ref) (stepResult, error) {
		// One trunk (every parallel copy of one switch-to-switch link) fails;
		// only the two routers at its ends are dirty.
		failed := r.fs.DRing.Clone()
		a := int(uint64(subSeed(r.seed, 320)) % uint64(failed.N()))
		b := failed.Neighbors(a)[0]
		for failed.RemoveLink(a, b) {
		}
		net, err := bgp.Build(failed, 2)
		if err != nil {
			return stepResult{}, err
		}
		rib, rounds, err := net.ConvergeDirty(r.rib, []int{a, b})
		if err != nil {
			return stepResult{}, err
		}
		if err := bgp.VerifyTheorem1(net, rib); err != nil {
			return stepResult{}, fmt.Errorf("after the trunk failure: %w", err)
		}
		return stepResult{digest: []int{a, b, rounds, r.ribSum(net, rib)}, work: 1}, nil
	})
	for _, s := range inst.steps {
		run := s.run
		if err := st.step(s.name, func() error { _, err := run(ref{}); return err }); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// rackPairs lists the round's band of rack pairs on g: every rack paired with
// the rack band places further on, capped at 80 pairs.
func (r *fabricRound) rackPairs(g *topology.Graph) [][2]int {
	racks := g.Racks()
	n := min(len(racks), 80)
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{racks[i], racks[(i+r.band)%len(racks)]}
	}
	return out
}

// fibSum reads a FIB back over the band, so the digest depends on what was
// built: the sum of routing distances.
func (r *fabricRound) fibSum(f *routing.Fib) int {
	sum := 0
	for _, p := range r.rackPairs(f.Graph()) {
		sum += f.Distance(p[0], p[1])
	}
	return sum
}

func (r *fabricRound) ribSum(n *bgp.Network, rib bgp.Rib) int {
	sum := 0
	for _, p := range r.rackPairs(n.Topo) {
		sum += rib.Distance(n, p[0], p[1])
	}
	return sum
}

// bandPaths builds the scheme's path set for every pair of the band.
func (r *fabricRound) bandPaths(s routing.Scheme, maxPaths int) (stepResult, error) {
	var all [][]int
	for _, p := range r.rackPairs(r.fs.DRing) {
		set := s.PathSet(p[0], p[1], maxPaths)
		if len(set) == 0 {
			return stepResult{}, fmt.Errorf("%s: no path between racks %d and %d", s.Name(), p[0], p[1])
		}
		all = append(all, set...)
	}
	return stepResult{
		digest: func() any { return []any{s.Name(), len(all), hashPaths(all)} },
		work:   1, count: int64(len(all)),
	}, nil
}

// allPairs asks a native scheme for one path between every ordered rack pair.
func allPairs(g *topology.Graph, s routing.Scheme) (stepResult, error) {
	racks := g.Racks()
	var all [][]int
	for _, a := range racks {
		for _, b := range racks {
			if a == b {
				continue
			}
			p := s.Path(a, b, uint64(a)<<20|uint64(b))
			if len(p) < 2 || p[0] != a || p[len(p)-1] != b {
				return stepResult{}, fmt.Errorf("%s: path %v does not join racks %d and %d", s.Name(), p, a, b)
			}
			all = append(all, p)
		}
	}
	return stepResult{
		digest: func() any { return []any{s.Name(), len(all), hashPaths(all)} },
		work:   1, count: int64(len(all)),
	}, nil
}

// fabricLayers reduces the step spans (here the steps are the layer entry
// points themselves); pairs is the number of rack pairs a path-set band holds.
func fabricLayers(v *traceView, pairs float64) map[string]float64 {
	out := map[string]float64{}
	out["topology.build_ms"] = v.quietNS("topology.build") / 1e6
	out["topology.build_allocs"] = v.allocs("topology.build")
	out["topology.links"] = v.count("topology.build")
	out["routing.fib_build_ms"] = v.quietNS("routing.fib_build") / 1e6
	out["routing.fib_build_allocs"] = v.allocs("routing.fib_build")
	if pairs > 0 {
		out["routing.ksp_pathset_us"] = v.quietNS("routing.ksp_pathset") / 1e3 / pairs
	}
	if n := v.count("routing.native_path"); n > 0 {
		out["routing.native_path_ns"] = v.quietNS("routing.native_path") / n
	}
	out["routing.paths"] = v.count("routing.ksp_pathset", "routing.vlb_pathset", "routing.native_path")
	out["bgp.build_ms"] = v.quietNS("bgp.build") / 1e6
	out["bgp.converge_ms"] = v.quietNS("bgp.converge") / 1e6
	out["bgp.converge_rounds"] = v.count("bgp.converge")
	out["bgp.reconverge_ms"] = v.quietNS("bgp.reconverge") / 1e6
	out["bgp.verify_ms"] = v.quietNS("bgp.verify") / 1e6
	out["bgp.allocs"] = v.allocs("bgp.build", "bgp.converge", "bgp.verify", "bgp.reconverge")
	return out
}
