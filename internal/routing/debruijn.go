package routing

import (
	"fmt"

	"spineless/internal/topology"
)

// DeBruijn is shift-register self-routing on a De Bruijn fabric
// (arXiv:1610.03245): a path from src to dst is read directly off the node
// labels by shifting dst's base-k digits into src one at a time, skipping
// the digits that already overlap. No FIB is constructed and no per-pair
// state is stored — the entire scheme is the graph handle plus a power
// table, which is what makes the topology's routing "free" at any scale.
//
// The walk uses only the directed shift edges the builder is guaranteed to
// retain (regularization never removes them), so every emitted path exists
// in the fabric. The number of shift steps before loop splicing equals the
// directed De Bruijn distance: Digits minus the longest suffix of src that
// prefixes dst. Self-routing is single-path — flowID is ignored, which the
// Scheme contract permits — and assumes an intact fabric; under failures it
// has no reroute story, which is exactly the trade the bake-off measures.
//
// Immutable after construction (Scheme concurrency contract).
type DeBruijn struct {
	k      int   // alphabet size
	digits int   // label length
	n      int   // switch count, k^digits
	pow    []int // pow[i] = k^i, i in [0, digits]
}

// NewDeBruijn builds the self-routing scheme for a fabric built by
// topology.DeBruijn, recovering (Symbols, Digits) from the shift edges via
// topology.InferDeBruijn. It fails with a clear error on any other graph —
// self-routing is meaningless without the label structure.
func NewDeBruijn(g *topology.Graph) (*DeBruijn, error) {
	spec, ok := topology.InferDeBruijn(g)
	if !ok {
		return nil, fmt.Errorf("routing: graph %q is not a De Bruijn fabric; selfroute needs shift edges", g.Name)
	}
	s := &DeBruijn{k: spec.Symbols, digits: spec.Digits, n: g.N()}
	s.pow = make([]int, spec.Digits+1)
	s.pow[0] = 1
	for i := 1; i <= spec.Digits; i++ {
		s.pow[i] = s.pow[i-1] * spec.Symbols
	}
	return s, nil
}

// Name implements Scheme.
func (s *DeBruijn) Name() string { return "selfroute" }

// overlap returns the largest j such that the last j digits of src equal
// the first j digits of dst.
func (s *DeBruijn) overlap(src, dst int) int {
	for j := s.digits; j > 0; j-- {
		if src%s.pow[j] == dst/s.pow[s.digits-j] {
			return j
		}
	}
	return 0
}

// Path implements Scheme. flowID is unused: shift-register routing is
// single-path by nature.
func (s *DeBruijn) Path(src, dst int, flowID uint64) []int {
	buf := make([]int, 0, s.digits+1)
	return s.AppendPath(buf, src, dst, flowID)
}

// AppendPath implements Scheme: it appends the self-routed path from src to
// dst onto buf. A path has at most Digits+1 switches.
func (s *DeBruijn) AppendPath(buf []int, src, dst int, _ uint64) []int {
	start := len(buf)
	buf = append(buf, src)
	if src == dst {
		return buf
	}
	// Shift dst's digits in, most significant of the non-overlapping tail
	// first. Steps where the label does not change (shifting an all-equal
	// label's own symbol in) are skipped rather than emitted — the fabric
	// has no self-loops.
	cur := src
	for i := s.digits - s.overlap(src, dst); i > 0; i-- {
		digit := dst / s.pow[i-1] % s.k
		next := (cur*s.k + digit) % s.n
		if next == cur {
			continue
		}
		buf = append(buf, next)
		cur = next
	}
	// Splice out switch-level loops (a real FIB would forward on from the
	// repeat).
	return buf[:start+len(spliceLoops(buf[start:]))]
}

// PathSet implements Scheme. Self-routing admits one walk per overlap
// length (taking the "long way" with a smaller overlap re-derives a valid
// shift walk), so PathSet enumerates those from shortest up, deduplicating
// identical spliced paths.
func (s *DeBruijn) PathSet(src, dst, maxPaths int) [][]int {
	if src == dst {
		return [][]int{{src}}
	}
	var out [][]int
	for j := s.overlap(src, dst); j >= 0; j-- {
		p := s.pathWithOverlap(src, dst, j)
		if p == nil || containsPath(out, p) {
			continue
		}
		out = append(out, p)
		if maxPaths > 0 && len(out) >= maxPaths {
			break
		}
	}
	return out
}

// pathWithOverlap routes src→dst pretending the label overlap is exactly j.
func (s *DeBruijn) pathWithOverlap(src, dst, j int) []int {
	buf := make([]int, 0, s.digits-j+1)
	buf = append(buf, src)
	cur := src
	for i := s.digits - j; i > 0; i-- {
		digit := dst / s.pow[i-1] % s.k
		next := (cur*s.k + digit) % s.n
		if next == cur {
			continue
		}
		buf = append(buf, next)
		cur = next
	}
	if cur != dst {
		return nil
	}
	return spliceLoops(buf)
}

var _ Scheme = (*DeBruijn)(nil)
