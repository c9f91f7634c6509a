// Package workload generates the traffic demands of §5.2: uniform/A2A,
// rack-to-rack, the C-S model, and synthetic stand-ins for the Facebook
// rack-level traffic matrices of Roy et al. [21] (the raw traces are
// proprietary; see DESIGN.md for the substitution argument). It also
// provides the Pareto flow-size distribution and the spine-utilization
// scaling rule used to size experiments.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Matrix is a rack-level traffic matrix: W[i][j] is the relative demand
// from rack i to rack j. Weights are non-negative and the diagonal is zero
// (intra-rack traffic never enters the fabric). Racks are indexed by
// position in the fabric's rack list, not by switch id.
type Matrix struct {
	Name string
	W    [][]float64
}

// NewMatrix allocates an all-zero n×n matrix. The rows share one backing
// array; each row's capacity ends where the next row begins, so an append
// to a row copies it out instead of writing into its neighbour.
func NewMatrix(name string, n int) *Matrix {
	w := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range w {
		w[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return &Matrix{Name: name, W: w}
}

// N returns the number of racks.
func (m *Matrix) N() int { return len(m.W) }

// Total returns the sum of all weights.
func (m *Matrix) Total() float64 {
	t := 0.0
	for _, row := range m.W {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Validate checks shape, non-negativity, zero diagonal and non-zero total.
func (m *Matrix) Validate() error {
	n := len(m.W)
	for i, row := range m.W {
		if len(row) != n {
			return fmt.Errorf("workload %q: row %d has %d entries, want %d", m.Name, i, len(row), n)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("workload %q: negative weight at (%d,%d)", m.Name, i, j)
			}
			if i == j && v > 0 {
				return fmt.Errorf("workload %q: nonzero diagonal at %d", m.Name, i)
			}
		}
	}
	if m.Total() <= 0 {
		return fmt.Errorf("workload %q: zero total demand", m.Name)
	}
	return nil
}

// Uniform returns the uniform/A2A matrix over n racks: every ordered pair
// of distinct racks has weight 1 (§5.2 "Uniform/A2A").
func Uniform(n int) *Matrix {
	m := NewMatrix("A2A", n)
	for i := range m.W {
		for j := range m.W[i] {
			if i != j {
				m.W[i][j] = 1
			}
		}
	}
	return m
}

// RackToRack returns the R2R matrix: all demand flows from rack src to rack
// dst (§5.2 "Rack-to-rack").
func RackToRack(n, src, dst int) *Matrix {
	m := NewMatrix("R2R", n)
	m.W[src][dst] = 1
	return m
}

// SendingRacks returns the number of racks with outgoing or incoming
// demand. The paper scales R2R and C-S matrices down by
// sendingRacks/totalRacks (§6.1); this provides the numerator.
func (m *Matrix) SendingRacks() int {
	n := 0
	for i := range m.W {
		active := false
		for j := range m.W {
			if m.W[i][j] > 0 || m.W[j][i] > 0 {
				active = true
				break
			}
		}
		if active {
			n++
		}
	}
	return n
}

// Sampler draws rack pairs with probability proportional to their weight.
type Sampler struct {
	m   *Matrix
	cum []float64 // flattened cumulative weights
}

// NewSampler prepares weighted sampling over the matrix.
func NewSampler(m *Matrix) (*Sampler, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.N()
	cum := make([]float64, n*n)
	run := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			run += m.W[i][j]
			cum[i*n+j] = run
		}
	}
	return &Sampler{m: m, cum: cum}, nil
}

// Sample returns a rack pair (src, dst) drawn by weight.
func (s *Sampler) Sample(rng *rand.Rand) (src, dst int) {
	total := s.cum[len(s.cum)-1]
	x := rng.Float64() * total
	idx := sort.SearchFloat64s(s.cum, x)
	if idx >= len(s.cum) {
		idx = len(s.cum) - 1
	}
	n := s.m.N()
	return idx / n, idx % n
}
