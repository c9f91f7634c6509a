package resilience

import (
	"reflect"
	"testing"
)

func liveTestConfig() LiveConfig {
	cfg := DefaultLiveConfig()
	cfg.Flows = 300
	cfg.PreserveConnectivity = true
	return cfg
}

func TestRunLiveBlackholeWindowTracksReconvergence(t *testing.T) {
	g := ringFabric(t)
	cfg := liveTestConfig()
	res, err := RunLive(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedPairs == 0 || res.FailedLinks < res.FailedPairs {
		t.Fatalf("no failures injected: %+v", res)
	}
	if res.ReconvRounds < 2 {
		t.Fatalf("reconvergence rounds = %d, want >= 2 after real failures", res.ReconvRounds)
	}
	if res.Blackholed == 0 || res.MeasuredBlackholeNS == 0 {
		t.Fatalf("no blackhole transient observed: %+v", res)
	}
	// The data plane's measured outage must track the configured one
	// (detection + rounds × per-round delay) within one RTO.
	configured := res.RepairNS - cfg.FailAtNS
	tol := int64(cfg.Net.MinRTO)
	diff := res.MeasuredBlackholeNS - configured
	if diff < -tol || diff > tol {
		t.Fatalf("measured blackhole %d ns vs configured %d ns (tolerance %d)",
			res.MeasuredBlackholeNS, configured, tol)
	}
	if res.FlowsWithRTO == 0 {
		t.Fatal("no flow hit an RTO during the transient")
	}
	if res.Reroutes == 0 {
		t.Fatal("no live flow re-pathed at the repair")
	}
	if res.Transient.During.Count == 0 || res.Transient.After.Count == 0 {
		t.Fatalf("transient buckets empty: %+v", res.Transient)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d flows never completed on a connectivity-preserving cut", res.Incomplete)
	}
}

func TestRunLiveWindowScalesWithRoundDelay(t *testing.T) {
	g := ringFabric(t)
	fast := liveTestConfig()
	fast.RoundDelayNS = 2e5
	slow := liveTestConfig()
	slow.RoundDelayNS = 2e6
	rFast, err := RunLive(g, fast)
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := RunLive(g, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.RepairNS <= rFast.RepairNS {
		t.Fatalf("repair time did not grow with round delay: %d vs %d", rSlow.RepairNS, rFast.RepairNS)
	}
	if rSlow.MeasuredBlackholeNS <= rFast.MeasuredBlackholeNS {
		t.Fatalf("measured window did not track round delay: %d vs %d",
			rSlow.MeasuredBlackholeNS, rFast.MeasuredBlackholeNS)
	}
}

func TestRunLiveDeterministic(t *testing.T) {
	g := ringFabric(t)
	cfg := liveTestConfig()
	cfg.FlapLinks = 1
	cfg.GrayLinks = 2
	a, err := RunLive(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLive(ringFabric(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("live runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Flapping != 1 || a.Gray != 2 {
		t.Fatalf("flap/gray not injected: %+v", a)
	}
	if a.GrayDrops == 0 {
		t.Fatal("gray links dropped nothing")
	}
}

func TestRunLiveRejectsBadConfig(t *testing.T) {
	g := ringFabric(t)
	for _, mod := range []func(*LiveConfig){
		func(c *LiveConfig) { c.K = 1 },
		func(c *LiveConfig) { c.Flows = 0 },
		func(c *LiveConfig) { c.WindowNS = 0 },
		func(c *LiveConfig) { c.RoundDelayNS = -1 },
	} {
		cfg := liveTestConfig()
		mod(&cfg)
		if _, err := RunLive(g, cfg); err == nil {
			t.Fatalf("bad config accepted: %+v", cfg)
		}
	}
}
