package core

import (
	"fmt"
	"math/rand"

	"spineless/internal/parallel"
	"spineless/internal/topology"
)

// ScalePoint is one x-position of Figure 6: a DRing of the given size
// against its equipment-matched RRG under uniform traffic.
type ScalePoint struct {
	Supernodes int
	Racks      int
	Servers    int
	// Ratio is p99FCT(DRing)/p99FCT(RRG); > 1 means the DRing is worse.
	Ratio float64
	// MedianRatio is the same for median FCT (extra context; not in the paper).
	MedianRatio float64
}

// ScaleConfig parameterizes the Figure 6 sweep. The DRing geometry is the
// §6.3 configuration: TorsPerSupernode switches of Ports ports each, with
// Ports−4×TorsPerSupernode server links per ToR.
type ScaleConfig struct {
	TorsPerSupernode int
	Ports            int
	Scheme           string // routing scheme name for both fabrics
	// Topology picks the fabric measured against the equipment-matched RRG
	// denominator, built on the sweep point's DRing budget by OnDRing:
	// "dring" (default, the paper's Figure 6) or a bake-off flat fabric.
	Topology string
	FCT      FCTConfig
	// Workers bounds sweep-point parallelism (0 = one per CPU). Points are
	// independent — each builds its own fabrics and reseeds from FCT.Seed —
	// so the sweep is bit-identical at any worker count.
	Workers int
}

// DefaultScaleConfig uses the paper's §6.3 geometry (6 ToRs per supernode,
// 60 ports, 36 server links) with ECMP, which suffices for uniform traffic.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{TorsPerSupernode: 6, Ports: 60, Scheme: "ecmp", FCT: DefaultFCTConfig()}
}

// ScaleSweep measures how the DRing degrades with scale (Figure 6): for
// each supernode count it builds the DRing and an equipment-matched RRG,
// runs the uniform workload on both, and reports the p99 FCT ratio.
// Points run in parallel across cfg.Workers, each into its own slot.
func ScaleSweep(supernodeCounts []int, cfg ScaleConfig) ([]ScalePoint, error) {
	out := make([]ScalePoint, len(supernodeCounts))
	err := parallel.ForEach(cfg.Workers, len(supernodeCounts), func(i int) error {
		m := supernodeCounts[i]
		pt, err := scalePoint(m, cfg)
		if err != nil {
			return fmt.Errorf("core: scale m=%d: %w", m, err)
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func scalePoint(m int, cfg ScaleConfig) (ScalePoint, error) {
	dr, err := topology.DRing(topology.Uniform(m, cfg.TorsPerSupernode, cfg.Ports))
	if err != nil {
		return ScalePoint{}, err
	}
	name := cfg.Topology
	if name == "" {
		name = "dring"
	}
	// One rng builds the numerator on the DRing's budget and then the
	// denominator RRG matched to it, so the ratio stays "fabric vs its own
	// equipment-matched expander".
	rng := rand.New(rand.NewSource(cfg.FCT.Seed))
	num, err := OnDRing(name, dr, rng)
	if err != nil {
		return ScalePoint{}, err
	}
	rrg, err := MatchedRRG(num, rng)
	if err != nil {
		return ScalePoint{}, err
	}
	// Keep per-server offered load constant across sweep points: the
	// capacity reference scales with the fabric (half the aggregate server
	// bandwidth), so Util=0.3 offers each server 15% of its NIC — enough
	// that the DRing's growing mean path length turns into queueing at
	// large m while the expander stays comfortable, which is the §6.3
	// effect. (A fixed reference, or a flow cap, would skew per-server
	// load across sweep points and invert the trend.)
	fctCfg := cfg.FCT
	fctCfg.CapacityBps = float64(num.Servers()) * fctCfg.Net.LinkRateBps / 2

	numCombo, err := NewCombo(name, num, cfg.Scheme)
	if err != nil {
		return ScalePoint{}, err
	}
	rrgCombo, err := NewCombo("rrg", rrg, cfg.Scheme)
	if err != nil {
		return ScalePoint{}, err
	}
	numRes, err := RunFCT(nil, numCombo, TMA2A, fctCfg)
	if err != nil {
		return ScalePoint{}, err
	}
	rrgRes, err := RunFCT(nil, rrgCombo, TMA2A, fctCfg)
	if err != nil {
		return ScalePoint{}, err
	}
	return ScalePoint{
		Supernodes:  m,
		Racks:       num.N(),
		Servers:     num.Servers(),
		Ratio:       numRes.Stats.P99MS / rrgRes.Stats.P99MS,
		MedianRatio: numRes.Stats.MedianMS / rrgRes.Stats.MedianMS,
	}, nil
}
