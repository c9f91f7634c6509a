package routing

// Adaptive is the §7 "coarse-grained adaptive routing" direction: it
// delegates each rack pair to one of two oblivious schemes based on a
// coarse, control-plane-time predicate (e.g. demand concentration measured
// from the DC's utilization). Hot pairs get the alternative scheme's extra
// path diversity; everything else keeps the base scheme's short paths.
//
// The composition stays oblivious at forwarding time — the predicate is
// evaluated when the scheme is built, not per packet — so it remains
// deployable with the same BGP/VRF machinery (hot prefixes are simply
// announced through the extra VRFs).
type Adaptive struct {
	name   string
	base   Scheme
	alt    Scheme
	useAlt func(src, dst int) bool
}

// NewAdaptive composes base and alt under a per-rack-pair predicate.
func NewAdaptive(name string, base, alt Scheme, useAlt func(src, dst int) bool) *Adaptive {
	return &Adaptive{name: name, base: base, alt: alt, useAlt: useAlt}
}

// Name implements Scheme.
func (a *Adaptive) Name() string { return a.name }

// Path implements Scheme.
func (a *Adaptive) Path(src, dst int, flowID uint64) []int {
	if a.useAlt(src, dst) {
		return a.alt.Path(src, dst, flowID)
	}
	return a.base.Path(src, dst, flowID)
}

// AppendPath implements Scheme.
func (a *Adaptive) AppendPath(buf []int, src, dst int, flowID uint64) []int {
	if a.useAlt(src, dst) {
		return a.alt.AppendPath(buf, src, dst, flowID)
	}
	return a.base.AppendPath(buf, src, dst, flowID)
}

// PathSet implements Scheme.
func (a *Adaptive) PathSet(src, dst, maxPaths int) [][]int {
	if a.useAlt(src, dst) {
		return a.alt.PathSet(src, dst, maxPaths)
	}
	return a.base.PathSet(src, dst, maxPaths)
}

var _ Scheme = (*Adaptive)(nil)
