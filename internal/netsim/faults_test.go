package netsim

import (
	"math/rand"
	"testing"

	"spineless/internal/faults"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// triangleFabric: switches 0-1-2 fully meshed, one server on 0 and one on 2,
// so the direct 0-2 link is the shortest path and 0-1-2 the detour.
func triangleFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New("tri", 3, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 1)
	g.SetServers(2, 1)
	return g
}

func TestLinkDownBlackholesUntilRepair(t *testing.T) {
	g := triangleFabric(t)
	size := int64(4 << 20) // ≈3.5 ms at 10 Gbps: still running at the cut
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 1, SizeBytes: size}}

	base := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	if base.Completed != 1 {
		t.Fatalf("baseline incomplete: %+v", base)
	}

	const failAt, repairAt = int64(1e6), int64(3e6)
	degraded := g.Clone()
	degraded.RemoveLink(0, 2)
	tv, err := routing.NewTimeVarying(
		routing.Phase{StartNS: 0, Scheme: routing.NewECMP(g)},
		routing.Phase{StartNS: repairAt, Scheme: routing.NewECMP(degraded)},
	)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(g, tv, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Seed: 7}
	sched.Cut(failAt, 0, 2)
	if err := sim.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("flow never recovered from the cut: %+v", res)
	}
	if res.Stats.Blackholed == 0 {
		t.Fatal("no packets blackholed into the down link")
	}
	if res.Stats.Reroutes != 1 {
		t.Fatalf("reroutes = %d, want 1", res.Stats.Reroutes)
	}
	if res.FlowsWithRTO != 1 {
		t.Fatalf("flows with RTO = %d, want 1", res.FlowsWithRTO)
	}
	if res.FCTNS[0] <= base.FCTNS[0] {
		t.Fatalf("transient was free: FCT %d <= baseline %d", res.FCTNS[0], base.FCTNS[0])
	}
	if res.BlackholeFirstNS < failAt {
		t.Fatalf("blackhole before the cut: %d < %d", res.BlackholeFirstNS, failAt)
	}
	// The blackhole must end within one max RTO of the repair: after the
	// repair, the next timeout retransmits onto the detour.
	maxRTO := int64(DefaultConfig().MaxRTO)
	if res.BlackholeLastNS > repairAt+maxRTO {
		t.Fatalf("blackhole persisted past repair: %d > %d", res.BlackholeLastNS, repairAt+maxRTO)
	}
}

func TestGrayLossAndRateDegradation(t *testing.T) {
	g := pairFabric(t, 1, 1)
	size := int64(1 << 20)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 1, SizeBytes: size}}
	base := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)

	// 5% loss at nominal rate: the flow completes but pays retransmits.
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Seed: 3}
	sched.Gray(0, 0, 1, 0.05, 1)
	if err := sim.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("gray loss killed the flow: %+v", res)
	}
	if res.Stats.GrayDrops == 0 {
		t.Fatal("5% loss dropped nothing")
	}
	if res.FCTNS[0] <= base.FCTNS[0] {
		t.Fatalf("gray loss was free: %d <= %d", res.FCTNS[0], base.FCTNS[0])
	}

	// Rate degraded to 25% without loss: FCT stretches roughly 4×.
	sim2, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched2 := &faults.Schedule{Seed: 3}
	sched2.Gray(0, 0, 1, 0, 0.25)
	if err := sim2.InstallFaults(sched2); err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != 1 {
		t.Fatalf("degraded link killed the flow: %+v", res2)
	}
	if res2.Stats.GrayDrops != 0 {
		t.Fatalf("pure rate degradation dropped %d packets", res2.Stats.GrayDrops)
	}
	ratio := float64(res2.FCTNS[0]) / float64(base.FCTNS[0])
	if ratio < 3 || ratio > 5.5 {
		t.Fatalf("25%% rate gave %.2f× FCT, want ≈4×", ratio)
	}
}

func TestFlappingLinkRecoversBetweenOutages(t *testing.T) {
	g := triangleFabric(t)
	size := int64(8 << 20)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 1, SizeBytes: size}}
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Seed: 1}
	sched.Flap(0, 2, 1e6, 5e5, 2e6, 3) // three 0.5 ms outages, 2 ms up between
	if err := sim.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("flow never finished around the flaps: %+v", res)
	}
	if res.Stats.Blackholed == 0 {
		t.Fatal("flapping link blackholed nothing")
	}
}

// TestFaultScheduleDeterminism is the reproducibility contract: the same
// seed and schedule — including a flapping link and a gray 5%-loss link —
// produce byte-identical FCTs and stats across two fresh runs.
func TestFaultScheduleDeterminism(t *testing.T) {
	build := func() (Results, []int64) {
		g, err := topology.DRing(topology.Uniform(6, 2, 20))
		if err != nil {
			t.Fatal(err)
		}
		fib, err := routing.NewShortestUnion(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		degraded := g.Clone()
		degraded.RemoveLink(0, 2)
		dfib, err := routing.NewShortestUnion(degraded, 2)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := routing.NewTimeVarying(
			routing.Phase{StartNS: 0, Scheme: fib},
			routing.Phase{StartNS: 4e6, Scheme: dfib},
		)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := workload.GenerateFlows(g, workload.Uniform(len(g.Racks())), workload.GenConfig{
			Flows:    150,
			Sizes:    workload.Pareto{MeanBytes: 30e3, Alpha: 1.05, Cap: 300e3},
			WindowNS: 8e6,
		}, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		sched := &faults.Schedule{Seed: 42}
		sched.Cut(2e6, 0, 2)
		sched.Flap(1, 5, 2e6, 5e5, 5e5, 3) // flapping link
		sched.Gray(2e6, 3, 7, 0.05, 1)     // gray link: 5% loss
		sched.Gray(2e6, 4, 8, 0.02, 0.5)   // gray link: loss + half rate
		sim, err := New(g, tv, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InstallFaults(sched); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(flows)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.FCTNS
	}
	resA, fctA := build()
	resB, fctB := build()
	for i := range fctA {
		if fctA[i] != fctB[i] {
			t.Fatalf("FCT diverged at flow %d: %d vs %d", i, fctA[i], fctB[i])
		}
	}
	if resA.Stats != resB.Stats {
		t.Fatalf("stats diverged:\n%+v\n%+v", resA.Stats, resB.Stats)
	}
	if resA.BlackholeFirstNS != resB.BlackholeFirstNS || resA.BlackholeLastNS != resB.BlackholeLastNS {
		t.Fatal("blackhole window diverged")
	}
	if resA.Stats.Blackholed == 0 || resA.Stats.GrayDrops == 0 {
		t.Fatalf("faults not exercised: %+v", resA.Stats)
	}
}

func TestInstallFaultsValidation(t *testing.T) {
	g := pairFabric(t, 1, 1)
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := &faults.Schedule{}
	bad.Cut(0, 0, 5) // no such link
	if err := sim.InstallFaults(bad); err == nil {
		t.Fatal("fault on non-existent link accepted")
	}
	worse := &faults.Schedule{}
	worse.Gray(0, 0, 1, 1.5, 1) // loss prob out of range
	if err := sim.InstallFaults(worse); err == nil {
		t.Fatal("loss probability 1.5 accepted")
	}
	ok := &faults.Schedule{}
	ok.Cut(1e6, 0, 1)
	if err := sim.InstallFaults(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]workload.Flow{{ID: 1, Src: 0, Dst: 1, SizeBytes: 1000}}); err != nil {
		t.Fatal(err)
	}
	if err := sim.InstallFaults(ok); err == nil {
		t.Fatal("InstallFaults after Run accepted")
	}
}

// frameTimeTracer checks, at every transmission start and every link state
// change of a run, that the serialization time the simulator uses equals
// the division it caches; it also records what the run exercised.
type frameTimeTracer struct {
	countTracer
	t      *testing.T
	sim    *Simulator
	wires  map[int32]bool // every wire size that started transmitting
	gray   map[int32]bool // links running below their nominal rate
	grayTx int            // transmissions started on such a link
	sets   int            // state changes that degraded a link's rate
	clears int            // state changes that restored it
}

func (c *frameTimeTracer) check(link int32, wire int32) {
	l := &c.sim.links[link]
	if got, want := c.sim.txTimeNS(l, wire), int64(float64(wire)/l.bytesPerNS+0.5); got != want {
		c.t.Fatalf("link %d at %g B/ns: a %d-byte frame takes %d ns, the division gives %d", link, l.bytesPerNS, wire, got, want)
	}
}

func (c *frameTimeTracer) OnTxStart(_ int64, link, _ int32, _ bool, wire int32) {
	c.check(link, wire)
	c.wires[wire] = true
	if c.gray[link] {
		c.grayTx++
	}
}

func (c *frameTimeTracer) OnStateChange(_ int64, link int32, _ bool, _, rateFactor float64) {
	c.check(link, c.sim.ackWire)
	c.check(link, c.sim.mssWire)
	switch {
	case rateFactor < 1:
		c.gray[link] = true
		c.sets++
	case c.gray[link]:
		delete(c.gray, link)
		c.clears++
	}
}

// TestCachedFrameTimesMatchDivision runs the golden DRing workload with a
// gray link at half rate from 100 µs to 600 µs and checks every frame the
// run serializes — ACKs, full segments and every shorter tail — and both
// cached times of each link right after GraySet and GrayClear against the
// division txTimeNS replaces.
func TestCachedFrameTimesMatchDivision(t *testing.T) {
	g, flows := goldenDRing(t)
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := g.Neighbors(2)[0]
	sched := &faults.Schedule{Seed: 5}
	sched.Gray(100_000, 2, v, 0.01, 0.5)
	sched.Events = append(sched.Events, faults.Event{TimeNS: 600_000, Kind: faults.GrayClear, A: 2, B: v})
	if err := sim.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	tr := &frameTimeTracer{t: t, sim: sim, wires: map[int32]bool{}, gray: map[int32]bool{}}
	if err := sim.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(flows); err != nil {
		t.Fatal(err)
	}
	if !tr.wires[sim.ackWire] || !tr.wires[sim.mssWire] || len(tr.wires) < 3 {
		t.Errorf("the run serialized wire sizes %v; want ACKs (%d), full segments (%d) and shorter tails", tr.wires, sim.ackWire, sim.mssWire)
	}
	if tr.sets == 0 || tr.clears == 0 || tr.grayTx == 0 {
		t.Errorf("gray link: %d rate cuts, %d restores, %d transmissions while cut; want each above 0", tr.sets, tr.clears, tr.grayTx)
	}
}
