package core

import (
	"math/rand"
	"time"

	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/workload"
)

// BurstResult reports a microburst drain measurement on one combo.
type BurstResult struct {
	// DrainMS is the time until the last burst flow completes — how long
	// the bursting rack needs to evacuate its data (§3's microburst
	// argument: flat ToRs can use all their network links for it).
	DrainMS float64
	// BurstP99MS is the 99th-percentile burst-flow FCT.
	BurstP99MS float64
	Incomplete int
	Stats      netsim.Stats
}

// RunBurst fires the §3 microburst at a combo and measures drain time.
func RunBurst(combo Combo, spec workload.BurstSpec, net netsim.Config, seed int64) (BurstResult, error) {
	rng := rand.New(rand.NewSource(seed))
	flows, burstN, err := workload.Burst(combo.Fabric, spec, int64(time.Millisecond), rng)
	if err != nil {
		return BurstResult{}, err
	}
	sim, err := netsim.New(combo.Fabric, combo.Scheme, net)
	if err != nil {
		return BurstResult{}, err
	}
	res, err := sim.Run(flows)
	if err != nil {
		return BurstResult{}, err
	}
	out := BurstResult{Stats: res.Stats}
	var drain int64
	for i := 0; i < burstN; i++ {
		f := res.FCTNS[i]
		if f < 0 {
			out.Incomplete++
			continue
		}
		if f > drain {
			drain = f
		}
	}
	out.DrainMS = float64(drain) / 1e6
	out.BurstP99MS = metrics.SummarizeFCT(res.FCTNS[:burstN]).P99MS
	return out, nil
}
