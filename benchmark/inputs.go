package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"

	"spineless/internal/workload"
)

// subSeed derives the i-th independent seed from the run's seed (splitmix64).
// The benchmark owns it so its inputs do not move if the program's own seed
// derivation ever does.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// dealtSizes is the flow-size input of the packet workloads: the n
// equal-probability quantile midpoints of the paper's Pareto(100 KB, 1.05)
// (§5.2), dealt to flows in an order drawn from the seed.
//
// Sampling that Pareto independently makes the bytes offered by 500 flows —
// and with them the simulated events — swing 10× between seeds (one seed in
// six draws a flow of hundreds of megabytes), which no regression bound could
// live with. Dealing the quantiles keeps the distribution's shape, elephants
// included, while every seed offers exactly the same bytes at different
// places and times.
type dealtSizes struct {
	sizes []int64
	next  int
	mean  float64
}

func newDealtSizes(n int, seed int64) *dealtSizes {
	p := workload.PaperFlowSizes()
	xm := p.MeanBytes * (p.Alpha - 1) / p.Alpha
	d := &dealtSizes{sizes: make([]int64, n)}
	sum := 0.0
	for i := range d.sizes {
		u := (float64(i) + 0.5) / float64(n)
		v := math.Max(1, math.Floor(xm/math.Pow(u, 1/p.Alpha)))
		d.sizes[i] = int64(v)
		sum += v
	}
	d.mean = sum / float64(n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) {
		d.sizes[i], d.sizes[j] = d.sizes[j], d.sizes[i]
	})
	return d
}

// Sample implements workload.SizeDist; it ignores rng (the deal is fixed at
// construction) and wraps after n draws.
func (d *dealtSizes) Sample(*rand.Rand) int64 {
	v := d.sizes[d.next%len(d.sizes)]
	d.next++
	return v
}

// Mean implements workload.SizeDist.
func (d *dealtSizes) Mean() float64 { return d.mean }

// reset rewinds the deal so the next flow set gets the same sizes again.
func (d *dealtSizes) reset() { d.next = 0 }

// zipfOrder returns n draws from {0..k-1} with P(i) ∝ 1/(i+1) (Zipf with
// exponent 1), a pure function of the seed: the order in which svc-mix asks
// for its resident results.
func zipfOrder(seed int64, k, n int) []int {
	cum := make([]float64, k)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cum, rng.Float64()*total)
		if out[i] >= k {
			out[i] = k - 1
		}
	}
	return out
}

// hashInt64s is a short content hash of a slice of integers, for digests.
func hashInt64s(v []int64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// hashPaths hashes a list of switch paths, order and lengths included. It
// streams rather than flattening first: digests are computed between rounds,
// inside the window allocs_per_round is taken over, so they should allocate
// next to nothing.
func hashPaths(paths [][]int) string {
	h := sha256.New()
	var b [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for _, p := range paths {
		put(len(p))
		for _, x := range p {
			put(x)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
