package workload

import (
	"math"
	"math/rand"
)

// FBUniform synthesizes a rack-level matrix with the qualitative structure
// of the Facebook Hadoop cluster of Roy et al. [21]: demand is largely
// uniform across rack pairs, with modest multiplicative noise (each rack's
// intensity varies within roughly ±25%). This is the "FB uniform" workload
// of §5.2, rebuilt synthetically because the raw weights are proprietary.
func FBUniform(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix("FB-uniform", n)
	out := lognormalIntensities(n, 0.12, rng)
	in := lognormalIntensities(n, 0.12, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			m.W[i][j] = out[i] * in[j] * (0.9 + 0.2*rng.Float64())
		}
	}
	return m
}

// FBSkewed synthesizes a rack-level matrix with the qualitative structure
// of the Facebook front-end cluster of Roy et al. [21]: a minority of racks
// (cache leaders, web aggregators) source and sink a large share of the
// demand. Rack in/out intensities follow a Zipf-like law (s = 0.7), which
// yields strong row/column skew while keeping the hottest rack's share in
// the regime the paper's results imply for the real trace: above the
// leaf-spine ToR's uplink saturation point at 30% load but below the flat
// rewiring's — the window where flatness masks oversubscription (§3.1).
// This is the "FB skewed" workload of §5.2.
func FBSkewed(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix("FB-skewed", n)
	out := zipfIntensities(n, 0.7, rng)
	in := zipfIntensities(n, 0.7, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			m.W[i][j] = out[i] * in[j] * (0.8 + 0.4*rng.Float64())
		}
	}
	return m
}

// zipfIntensities assigns rank-based Zipf weights (rank r gets 1/r^s) to a
// random permutation of racks, so hot racks land anywhere in the fabric.
func zipfIntensities(n int, s float64, rng *rand.Rand) []float64 {
	perm := rng.Perm(n)
	w := make([]float64, n)
	for rank, rack := range perm {
		w[rack] = 1 / math.Pow(float64(rank+1), s)
	}
	return w
}

// lognormalIntensities draws mildly dispersed positive intensities with
// median 1 and the given log-std sigma.
func lognormalIntensities(n int, sigma float64, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Exp(rng.NormFloat64() * sigma)
	}
	return w
}
