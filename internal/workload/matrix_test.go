package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestMatrixRowsDisjoint: NewMatrix's rows share one backing array, so a
// write or an append to one row must never reach the next.
func TestMatrixRowsDisjoint(t *testing.T) {
	const n = 80
	m := NewMatrix("rows", n)
	for i := 0; i+1 < n; i++ {
		if len(m.W[i]) != n || cap(m.W[i]) != n {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(m.W[i]), cap(m.W[i]), n)
		}
		m.W[i][n-1] = 7
		if m.W[i+1][0] != 0 {
			t.Fatalf("writing W[%d][%d] set W[%d][0] to %v", i, n-1, i+1, m.W[i+1][0])
		}
		next := append([]float64(nil), m.W[i+1]...)
		_ = append(m.W[i], 9)
		if !reflect.DeepEqual(m.W[i+1], next) {
			t.Fatalf("append to row %d changed row %d", i, i+1)
		}
	}
}

// newMatrixRows is NewMatrix before rows shared one backing array: one
// allocation per row. The constructions below build on it as the reference.
func newMatrixRows(name string, n int) *Matrix {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	return &Matrix{Name: name, W: w}
}

// TestMatrixMatchesRowByRow: Uniform, FBSkewed and CSMatrix build the same
// matrices as a row-by-row construction of the same generator, on seeds
// drawn fresh each run.
func TestMatrixMatchesRowByRow(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	g := testFabric(t)
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(40)

		want := newMatrixRows("A2A", n)
		for i := range want.W {
			for j := range want.W[i] {
				if i != j {
					want.W[i][j] = 1
				}
			}
		}
		if got := Uniform(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("Uniform(%d) differs from the row-by-row matrix", n)
		}

		s := rng.Int63()
		want = newMatrixRows("FB-skewed", n)
		ref := rand.New(rand.NewSource(s))
		out, in := zipfIntensities(n, 0.7, ref), zipfIntensities(n, 0.7, ref)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					want.W[i][j] = out[i] * in[j] * (0.8 + 0.4*ref.Float64())
				}
			}
		}
		if got := FBSkewed(n, rand.New(rand.NewSource(s))); !reflect.DeepEqual(got, want) {
			t.Fatalf("FBSkewed(%d, seed %d) differs from the row-by-row matrix", n, s)
		}

		cs, err := CSModel(g, 1+rng.Intn(20), 1+rng.Intn(20), rng)
		if err != nil {
			t.Fatal(err)
		}
		racks := g.Racks()
		got := CSMatrix(g, cs)
		want = newMatrixRows(got.Name, len(racks))
		for _, c := range cs.Clients {
			for _, sv := range cs.Servers {
				cr, sr := g.RackOf(c), g.RackOf(sv)
				if cr != sr {
					want.W[rackIndex(racks, cr)][rackIndex(racks, sr)]++
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CSMatrix(%d clients, %d servers) differs from the row-by-row matrix",
				len(cs.Clients), len(cs.Servers))
		}
	}
}

func rackIndex(racks []int, r int) int {
	for i, v := range racks {
		if v == r {
			return i
		}
	}
	panic("rack not found")
}

// TestNewMatrixAllocs pins NewMatrix at two allocations whatever n: the
// row headers and the one backing array of cells.
func TestNewMatrixAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(20, func() { NewMatrix("pin", 80) }); got != 2 {
		t.Fatalf("NewMatrix(80) makes %.0f allocations, want 2", got)
	}
}
