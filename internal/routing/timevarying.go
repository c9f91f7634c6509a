package routing

import (
	"fmt"
	"sort"
	"strings"
)

// TimeScheme is a Scheme whose forwarding state changes at known simulated
// times — the control-plane view of a failure transient: the stale
// pre-failure FIB serves lookups until reconvergence completes, then the
// repaired FIB takes over. The packet simulator detects this interface and
// re-resolves live flows at each boundary.
type TimeScheme interface {
	Scheme
	// SchemeAt returns the scheme in force at simulated time tNS.
	SchemeAt(tNS int64) Scheme
	// Boundaries lists the phase-change times, ascending, excluding the
	// initial phase's start.
	Boundaries() []int64
}

// Phase is one routing regime: Scheme serves lookups from StartNS until the
// next phase begins.
type Phase struct {
	StartNS int64
	Scheme  Scheme
}

// TimeVarying is the concrete multi-phase TimeScheme. Its plain Scheme
// methods (Path, AppendPath, PathSet) serve the initial phase, so
// time-unaware callers see the pre-failure behavior.
type TimeVarying struct {
	phases []Phase
}

// NewTimeVarying builds a time-varying scheme from its phases. The first
// phase must start at 0 and starts must be strictly increasing.
func NewTimeVarying(phases ...Phase) (*TimeVarying, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("routing: time-varying scheme needs at least one phase")
	}
	if phases[0].StartNS != 0 {
		return nil, fmt.Errorf("routing: first phase starts at %d, want 0", phases[0].StartNS)
	}
	for i, p := range phases {
		if p.Scheme == nil {
			return nil, fmt.Errorf("routing: phase %d has a nil scheme", i)
		}
		if i > 0 && p.StartNS <= phases[i-1].StartNS {
			return nil, fmt.Errorf("routing: phase %d start %d not after phase %d start %d",
				i, p.StartNS, i-1, phases[i-1].StartNS)
		}
	}
	return &TimeVarying{phases: append([]Phase(nil), phases...)}, nil
}

// Name implements Scheme.
func (tv *TimeVarying) Name() string {
	parts := make([]string, len(tv.phases))
	for i, p := range tv.phases {
		parts[i] = p.Scheme.Name()
	}
	return "time-varying(" + strings.Join(parts, "→") + ")"
}

// Path implements Scheme, serving the initial phase.
func (tv *TimeVarying) Path(src, dst int, flowID uint64) []int {
	return tv.phases[0].Scheme.Path(src, dst, flowID)
}

// AppendPath implements Scheme, serving the initial phase.
func (tv *TimeVarying) AppendPath(buf []int, src, dst int, flowID uint64) []int {
	return tv.phases[0].Scheme.AppendPath(buf, src, dst, flowID)
}

// PathSet implements Scheme, serving the initial phase.
func (tv *TimeVarying) PathSet(src, dst, maxPaths int) [][]int {
	return tv.phases[0].Scheme.PathSet(src, dst, maxPaths)
}

// SchemeAt implements TimeScheme.
func (tv *TimeVarying) SchemeAt(tNS int64) Scheme {
	i := sort.Search(len(tv.phases), func(i int) bool { return tv.phases[i].StartNS > tNS }) - 1
	if i < 0 {
		i = 0
	}
	return tv.phases[i].Scheme
}

// Boundaries implements TimeScheme.
func (tv *TimeVarying) Boundaries() []int64 {
	out := make([]int64, 0, len(tv.phases)-1)
	for _, p := range tv.phases[1:] {
		out = append(out, p.StartNS)
	}
	return out
}

var _ TimeScheme = (*TimeVarying)(nil)
