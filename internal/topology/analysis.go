package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// NSRStats reports the Network-Server Ratio across the racks of a fabric.
// NSR (§3.1) is the ratio of network ports to server ports at a ToR that
// hosts servers; it measures outgoing network capacity per server in a rack.
type NSRStats struct {
	Mean, Min, Max float64
	Racks          int
}

// NSR computes Network-Server Ratio statistics over all server-hosting
// switches. Switches without servers (e.g. spines) do not contribute.
func NSR(g *Graph) (NSRStats, error) {
	st := NSRStats{Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for v := 0; v < g.N(); v++ {
		s := g.ServerCount(v)
		if s == 0 {
			continue
		}
		r := float64(g.NetworkDegree(v)) / float64(s)
		sum += r
		st.Min = math.Min(st.Min, r)
		st.Max = math.Max(st.Max, r)
		st.Racks++
	}
	if st.Racks == 0 {
		return NSRStats{}, fmt.Errorf("topology %q: no racks host servers", g.Name)
	}
	st.Mean = sum / float64(st.Racks)
	return st, nil
}

// UDF computes the Uplink-to-Downlink Factor of a baseline topology against
// its flat rewiring: UDF(T) = NSR(F(T)) / NSR(T) (§3.1). It is the expected
// best-case throughput gain of the flat network when traffic bottlenecks at
// the ToRs.
func UDF(baseline, flat *Graph) (float64, error) {
	b, err := NSR(baseline)
	if err != nil {
		return 0, err
	}
	f, err := NSR(flat)
	if err != nil {
		return 0, err
	}
	return f.Mean / b.Mean, nil
}

// UDFLeafSpineAnalytic returns the closed-form UDF of leaf-spine(x,y).
// From §3.1: NSR(T) = y/x and NSR(F(T)) = 2y/x, hence UDF = 2 regardless of
// x and y. The function exists so tests can pin the algebra:
//
//	NSR(F(T)) = ((x+y) − x(x+y)/(x+2y)) / (x(x+y)/(x+2y)) = 2y/x.
func UDFLeafSpineAnalytic(spec LeafSpineSpec) (nsrBase, nsrFlat, udf float64) {
	x, y := float64(spec.X), float64(spec.Y)
	nsrBase = y / x
	serversPerSwitch := x * (x + y) / (x + 2*y)
	nsrFlat = ((x + y) - serversPerSwitch) / serversPerSwitch
	return nsrBase, nsrFlat, nsrFlat / nsrBase
}

// BFS computes hop distances from src to every switch. Unreachable switches
// get distance -1.
func BFS(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AllPairsDistances returns the hop-distance matrix between all switches.
func AllPairsDistances(g *Graph) [][]int {
	d := make([][]int, g.N())
	for v := range d {
		d[v] = BFS(g, v)
	}
	return d
}

// PathStats summarizes shortest-path structure between racks.
type PathStats struct {
	Diameter int       // max rack-to-rack hop distance
	Mean     float64   // mean rack-to-rack hop distance
	Hist     []float64 // Hist[L] = fraction of rack pairs at distance L
}

// RackPathStats computes shortest-path statistics between all ordered pairs
// of distinct server-hosting switches.
func RackPathStats(g *Graph) (PathStats, error) {
	racks := g.Racks()
	if len(racks) < 2 {
		return PathStats{}, fmt.Errorf("topology %q: fewer than two racks", g.Name)
	}
	var st PathStats
	var counts []int
	sum, pairs := 0, 0
	for _, r := range racks {
		dist := BFS(g, r)
		for _, q := range racks {
			if q == r {
				continue
			}
			d := dist[q]
			if d < 0 {
				return PathStats{}, fmt.Errorf("topology %q: rack %d unreachable from %d", g.Name, q, r)
			}
			for len(counts) <= d {
				counts = append(counts, 0)
			}
			counts[d]++
			sum += d
			pairs++
			if d > st.Diameter {
				st.Diameter = d
			}
		}
	}
	st.Mean = float64(sum) / float64(pairs)
	st.Hist = make([]float64, len(counts))
	for i, c := range counts {
		st.Hist[i] = float64(c) / float64(pairs)
	}
	return st, nil
}

// BisectionEstimate estimates the bisection bandwidth (in links) of the
// fabric by sampling random balanced switch bisections and refining each
// with Kernighan–Lin passes, keeping the minimum cut observed. It is an
// upper bound on the true bisection width; trials controls sampling effort.
//
// For the DRing the estimate recovers the analytically small ring cut
// (Θ(n²) links for supernode width n, independent of ring length m), which
// is the paper's argument for why DRing degrades at scale (§6.3).
func BisectionEstimate(g *Graph, trials int, rng *rand.Rand) int {
	n := g.N()
	if n < 2 {
		return 0
	}
	best := math.MaxInt
	perm := make([]int, n)
	side := make([]bool, n)
	for t := 0; t < trials; t++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, v := range perm {
			side[v] = i < n/2
		}
		cut := kernighanLin(g, side)
		if cut < best {
			best = cut
		}
	}
	return best
}

// kernighanLin refines a balanced bisection in place with classic KL
// passes (swap the best pair under the gain function, lock, take the best
// prefix of the swap sequence) until a pass yields no improvement. Returns
// the final cut size.
func kernighanLin(g *Graph, side []bool) int {
	n := g.N()
	cut := cutSize(g, side)
	for {
		// D[v] = external degree − internal degree under the current side.
		d := make([]int, n)
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(v) {
				if side[v] != side[w] {
					d[v]++
				} else {
					d[v]--
				}
			}
		}
		locked := make([]bool, n)
		type swap struct{ a, b int }
		var seq []swap
		cum, bestCum, bestK := 0, 0, -1
		for step := 0; step < n/2; step++ {
			bestGain := math.MinInt
			ba, bb := -1, -1
			for a := 0; a < n; a++ {
				if locked[a] || !side[a] {
					continue
				}
				for b := 0; b < n; b++ {
					if locked[b] || side[b] {
						continue
					}
					gain := d[a] + d[b] - 2*g.LinkMultiplicity(a, b)
					if gain > bestGain {
						bestGain, ba, bb = gain, a, b
					}
				}
			}
			if ba < 0 {
				break
			}
			locked[ba], locked[bb] = true, true
			seq = append(seq, swap{ba, bb})
			cum += bestGain
			if cum > bestCum {
				bestCum, bestK = cum, len(seq)
			}
			// Update D for unlocked vertices as if the swap were applied.
			for _, pair := range []struct {
				moved int
				from  bool
			}{{ba, true}, {bb, false}} {
				for _, w := range g.Neighbors(pair.moved) {
					if locked[w] {
						continue
					}
					if side[w] == pair.from {
						d[w] += 2
					} else {
						d[w] -= 2
					}
				}
			}
		}
		if bestK <= 0 || bestCum <= 0 {
			return cut
		}
		for i := 0; i < bestK; i++ {
			side[seq[i].a], side[seq[i].b] = side[seq[i].b], side[seq[i].a]
		}
		cut -= bestCum
	}
}

func cutSize(g *Graph, side []bool) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && side[v] != side[w] {
				cut++
			}
		}
	}
	return cut
}
