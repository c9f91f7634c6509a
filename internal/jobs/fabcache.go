package jobs

import (
	"sync"

	"spineless/internal/core"
	"spineless/internal/topology"
)

// fabricCacheEntries bounds a Manager's fabric cache. An LRU cache smaller
// than a sweep's cycle of keys rebuilds every key, so the bound must hold
// the largest cycle the paper's sweeps make: Figure 4's five combos and the
// bake-off's six fabrics per seed (TestFabricCacheHoldsSweeps). The largest
// entry a spec can name is Shortest-Union(9), or its weighted form, on the
// paper-budget Xpander: 17 MiB of heap, and eight of them held 137 MiB
// (BenchmarkFabricTraffic's "xpander-su9"). The default Shortest-Union(2)
// on the paper DRing is 1 MiB (DESIGN.md §10, "The fabric cache").
const fabricCacheEntries = 8

// fabricKey identifies a built fabric and routing scheme: everything
// core.TrioFabric and core.NewCombo read from an fct spec. The seed is
// part of the key only for fabrics wired from an rng (core.FabricSeeded);
// every seed of any other fabric shares one entry.
type fabricKey struct {
	paper          bool
	scale          int
	fabric, scheme string
	seed           int64
}

func fabricKeyOf(sp Spec) fabricKey {
	k := fabricKey{paper: sp.Topo.Paper, scale: sp.Topo.Scale, fabric: sp.Fabric, scheme: sp.Scheme}
	if core.FabricSeeded(sp.Fabric) {
		k.seed = sp.Seed
	}
	return k
}

// builtFabric is what an fct job builds before its first trial: the combo
// and the leaf-spine spec whose spine capacity sets the offered load.
// Entries are shared by every job that hits them: nothing on the fct path
// writes to a topology.Graph, and a routing.Scheme is safe for concurrent
// use once built (its concurrency contract).
type builtFabric struct {
	combo  core.Combo
	budget topology.LeafSpineSpec
}

// buildFabric builds the fabric and scheme an fct spec names, and nothing
// else.
func buildFabric(sp Spec) (builtFabric, error) {
	g, budget, err := core.TrioFabric(sp.Topo.Paper, sp.Topo.Scale, sp.Fabric, sp.Seed)
	if err != nil {
		return builtFabric{}, err
	}
	combo, err := core.NewCombo(sp.Fabric+" ("+sp.Scheme+")", g, sp.Scheme)
	if err != nil {
		return builtFabric{}, err
	}
	return builtFabric{combo: combo, budget: budget}, nil
}

// fabricEntry is one cache slot. built and err are written once, before
// ready closes; used is guarded by the cache's mutex.
type fabricEntry struct {
	ready chan struct{}
	built builtFabric
	err   error
	used  uint64
}

// fabricCache keeps the last fabricCacheEntries built fabrics of a
// Manager's jobs, least recently used out first. A key is built once:
// later callers wait for the first one's build, which runs outside the
// lock. A failed build is not kept. A nil cache builds every time.
type fabricCache struct {
	mu                      sync.Mutex
	entries                 map[fabricKey]*fabricEntry
	clock                   uint64
	hits, misses, evictions uint64
}

// get returns the entry for k, calling build on a miss.
func (c *fabricCache) get(k fabricKey, build func() (builtFabric, error)) (builtFabric, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	c.clock++
	if e := c.entries[k]; e != nil {
		e.used = c.clock
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.built, e.err
	}
	c.misses++
	if len(c.entries) >= fabricCacheEntries {
		var victim fabricKey
		oldest := c.clock
		for vk, e := range c.entries {
			if e.used < oldest {
				victim, oldest = vk, e.used
			}
		}
		delete(c.entries, victim)
		c.evictions++
	}
	if c.entries == nil {
		c.entries = map[fabricKey]*fabricEntry{}
	}
	e := &fabricEntry{ready: make(chan struct{}), used: c.clock}
	c.entries[k] = e
	c.mu.Unlock()

	defer close(e.ready)
	e.built, e.err = build()
	if e.err != nil {
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		c.mu.Unlock()
	}
	return e.built, e.err
}

// counts returns the cache's hits, misses (builds) and evictions.
func (c *fabricCache) counts() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
