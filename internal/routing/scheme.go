// Package routing implements the data-plane routing schemes evaluated in
// "Spineless Data Centers": standard shortest-path ECMP and the paper's
// Shortest-Union(K) scheme (§4), realized exactly as the paper's VRF/BGP
// design — a K-layer virtual graph whose equal-cost shortest paths are the
// union of all shortest physical paths and all physical paths of length ≤ K.
// K-shortest-path routing (the Jellyfish baseline) and Valiant load balancing
// are provided as comparison schemes.
//
// All schemes expose oblivious, per-flow forwarding: Path(src, dst, flowID)
// deterministically selects one admissible switch-level path by hashing the
// flow id at every hop, mirroring hop-by-hop ECMP hashing in real switches.
package routing

// Scheme selects switch-level paths between racks.
//
// Concurrency contract: once constructed, a Scheme must be safe for
// concurrent Path/AppendPath/PathSet calls — the parallel trial engine
// shares one scheme instance across every worker of a fan-out. The
// implementations in this package satisfy it as follows:
//
//   - Fib, Weighted, VLB: immutable after construction; lookups read only
//     precomputed slices.
//   - KSP: the lazily-filled path cache is mutex-guarded, with computation
//     outside the lock; Prewarm turns parallel phases into pure cache hits.
//   - Adaptive: immutable composition — safe iff base, alt and the useAlt
//     predicate are.
//   - DeBruijn: immutable after construction; Path derives the route from
//     node labels alone (no FIB, no cache, flowID unused).
//   - SPVLB (via NewSPVLB): an Adaptive over ECMP and VLB with a frozen
//     per-pair diversity bitmap; immutable composition.
//   - TimeVarying: phase schedule is immutable; SchemeAt is a read.
//
// New implementations must either be immutable after construction or guard
// every mutation; per-call mutable state (e.g. an embedded *rand.Rand) is
// forbidden — it would also break seeded replay (see internal/parallel).
type Scheme interface {
	// Name identifies the scheme (e.g. "ecmp", "shortest-union(2)").
	Name() string

	// Path returns the switch path a flow with the given id takes from the
	// src switch to the dst switch, inclusive of both endpoints. For
	// src == dst it returns [src]. The same (src, dst, flowID) always yields
	// the same path.
	Path(src, dst int, flowID uint64) []int

	// AppendPath appends the path Path returns onto buf and returns the
	// extended slice; buf is returned unchanged when dst is unreachable.
	// It makes no allocation when buf has room for the path (KSP: once the
	// pair's path set is cached), so a caller routing many flows can keep
	// every path in one arena. Both simulators route this way: flowsim
	// appends every flow's path to one pooled arena, and netsim appends
	// each lookup to a reused buffer that it expands into its link-id
	// arena.
	AppendPath(buf []int, src, dst int, flowID uint64) []int

	// PathSet enumerates the admissible paths from src to dst, up to maxPaths
	// entries (0 means no cap). Paths include both endpoints.
	PathSet(src, dst, maxPaths int) [][]int
}

// Prewarmer is implemented by schemes that can precompute lazily-built
// state (today: KSP's path cache). Fan-out harnesses call it once before
// sharing the scheme across workers so the parallel phase runs lock-free.
// Prewarming must never change routing output.
type Prewarmer interface {
	Prewarm()
}

// splitmix64 is the per-hop hash used for ECMP-style flow placement.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashChoice maps (flowID, hop, node) to an index in [0, n).
func hashChoice(flowID uint64, hop, node, n int) int {
	if n <= 1 {
		return 0
	}
	h := splitmix64(flowID ^ splitmix64(uint64(hop)<<32|uint64(uint32(node))))
	return int(h % uint64(n))
}

// PathLen returns the hop count of a switch path (#switches - 1).
func PathLen(p []int) int { return len(p) - 1 }
