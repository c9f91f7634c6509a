package netsim

import (
	"math/rand"
	"testing"
	"time"

	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// pairFabric: two ToRs joined by `links` parallel links, `hosts` servers each.
func pairFabric(t *testing.T, links, hosts int) *topology.Graph {
	t.Helper()
	g := topology.New("pair", 2, links+hosts)
	for i := 0; i < links; i++ {
		if err := g.AddLink(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, hosts)
	g.SetServers(1, hosts)
	return g
}

func runFlows(t *testing.T, g *topology.Graph, scheme routing.Scheme, cfg Config, flows []workload.Flow) Results {
	t.Helper()
	_, res := runSim(t, g, scheme, cfg, flows)
	return res
}

// runSim is runFlows that also returns the simulator after the run.
func runSim(t *testing.T, g *topology.Graph, scheme routing.Scheme, cfg Config, flows []workload.Flow) (*Simulator, Results) {
	t.Helper()
	sim, err := New(g, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

func TestSingleFlowNearLineRate(t *testing.T) {
	g := pairFabric(t, 1, 2)
	cfg := DefaultConfig()
	size := int64(4 << 20) // 4 MB
	res := runFlows(t, g, routing.NewECMP(g), cfg, []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: size},
	})
	if res.Completed != 1 {
		t.Fatalf("flow incomplete: %+v", res)
	}
	fct := res.FCTNS[0]
	// Ideal serialization at 10 Gbps with 40B headers per 1460B payload.
	ideal := float64(size) * (1500.0 / 1460.0) * 8 / 10e9 * 1e9
	if float64(fct) < ideal {
		t.Fatalf("FCT %.3fms beats line rate %.3fms", float64(fct)/1e6, ideal/1e6)
	}
	if float64(fct) > 2*ideal {
		t.Fatalf("FCT %.3fms more than 2× ideal %.3fms for an uncontended flow", float64(fct)/1e6, ideal/1e6)
	}
}

func TestDeterminism(t *testing.T) {
	g := pairFabric(t, 2, 8)
	var flows []workload.Flow
	for i := 0; i < 40; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 8, Dst: 8 + (i+3)%8,
			SizeBytes: int64(20e3 + 1000*i), StartNS: int64(i) * 5000,
		})
	}
	a := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	b := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	for i := range a.FCTNS {
		if a.FCTNS[i] != b.FCTNS[i] {
			t.Fatalf("run diverged at flow %d: %d vs %d", i, a.FCTNS[i], b.FCTNS[i])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	g := pairFabric(t, 1, 2)
	size := int64(2 << 20)
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: size},
		{ID: 2, Src: 1, Dst: 3, SizeBytes: size},
	}
	res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Two equal flows through one 10G link: each should take roughly twice
	// the solo time; total goodput near line rate.
	last := max(res.FCTNS[0], res.FCTNS[1])
	goodput := float64(2*size) * 8 / (float64(last) / 1e9)
	if goodput > 10e9 {
		t.Fatalf("goodput %v exceeds link rate", goodput)
	}
	if goodput < 5e9 {
		t.Fatalf("goodput %v under 50%% of link rate — sharing is broken", goodput)
	}
	// Neither flow should be starved: FCTs within 2× of each other.
	lo, hi := res.FCTNS[0], res.FCTNS[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 2.5*float64(lo) {
		t.Fatalf("unfair FCTs: %v vs %v", lo, hi)
	}
}

func TestIncastCompletesWithDrops(t *testing.T) {
	// 16 senders, one receiver host: heavy incast must drop packets yet all
	// flows complete via retransmission.
	g := topology.New("incast", 5, 32)
	for r := 1; r < 5; r++ {
		if err := g.AddLink(0, r); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 1)
	for r := 1; r < 5; r++ {
		g.SetServers(r, 4)
	}
	var flows []workload.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: 1 + i, Dst: 0, SizeBytes: 400e3,
		})
	}
	res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	if res.Completed != 16 {
		t.Fatalf("completed = %d/16 (stats %+v)", res.Completed, res.Stats)
	}
	if res.Stats.Drops == 0 {
		t.Fatal("incast produced no drops — queueing model suspect")
	}
	if res.Stats.Retransmits == 0 {
		t.Fatal("drops without retransmits — recovery suspect")
	}
}

func TestECMPSpreadsAcrossSpines(t *testing.T) {
	spec := topology.LeafSpineSpec{X: 4, Y: 4}
	g, err := topology.LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var flows []workload.Flow
	for i := 0; i < 64; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + i%4, SizeBytes: 50e3,
		})
	}
	tr := traceTx(t, sim)
	if _, err := sim.Run(flows); err != nil {
		t.Fatal(err)
	}
	// Leaf 0 is switch 0; spines are switches 8..11. Traffic from leaf 0
	// must appear on more than one spine uplink.
	used := 0
	for sp := 8; sp < 12; sp++ {
		if tr.linkTx(sim, 0, sp) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("ECMP used %d of 4 uplinks", used)
	}
}

func TestIntraRackFlow(t *testing.T) {
	g := pairFabric(t, 1, 4)
	// Hosts 0 and 1 are both on ToR 0.
	res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), []workload.Flow{
		{ID: 1, Src: 0, Dst: 1, SizeBytes: 100e3},
	})
	if res.Completed != 1 {
		t.Fatal("intra-rack flow incomplete")
	}
	if res.FCTNS[0] <= 0 {
		t.Fatalf("FCT = %d", res.FCTNS[0])
	}
}

func TestMaxSimTimeTruncates(t *testing.T) {
	g := pairFabric(t, 1, 2)
	cfg := DefaultConfig()
	cfg.MaxSimTime = 10 * time.Microsecond
	res := runFlows(t, g, routing.NewECMP(g), cfg, []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: 100 << 20},
	})
	if res.Completed != 0 {
		t.Fatal("giant flow completed in 10µs")
	}
	if res.FCTNS[0] != -1 {
		t.Fatalf("FCT = %d, want -1", res.FCTNS[0])
	}
}

func TestRunValidation(t *testing.T) {
	g := pairFabric(t, 1, 2)
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(nil); err == nil {
		t.Fatal("empty flow list accepted")
	}
	if _, err := sim.Run([]workload.Flow{{Src: 0, Dst: 0, SizeBytes: 1}}); err == nil {
		t.Fatal("host-local flow accepted")
	}
	if _, err := sim.Run([]workload.Flow{{Src: 0, Dst: 2, SizeBytes: 0}}); err == nil {
		t.Fatal("empty flow accepted")
	}
	if _, err := sim.Run([]workload.Flow{{Src: 0, Dst: 99, SizeBytes: 1}}); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	// Double Run.
	if _, err := sim.Run([]workload.Flow{{Src: 0, Dst: 2, SizeBytes: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run([]workload.Flow{{Src: 0, Dst: 2, SizeBytes: 1}}); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	g := pairFabric(t, 1, 2)
	bad := []func(*Config){
		func(c *Config) { c.LinkRateBps = 0 },
		func(c *Config) { c.MSS = 0 },
		func(c *Config) { c.QueueBytes = 10 },
		func(c *Config) { c.InitCwnd = 0 },
		func(c *Config) { c.MinRTO = 0 },
		func(c *Config) { c.MaxRTO = time.Microsecond },
		func(c *Config) { c.MaxSimTime = 0 },
		func(c *Config) { c.AckBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(g, routing.NewECMP(g), cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := pairFabric(t, 1, 2)
	size := int64(1 << 20)
	res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: size},
	})
	minSegs := uint64(size / 1460)
	if res.Stats.DataPackets < minSegs {
		t.Fatalf("data packets %d < segments %d", res.Stats.DataPackets, minSegs)
	}
	if res.Stats.AckPackets == 0 || res.Stats.Events == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestParetoWorkloadOnDRing(t *testing.T) {
	// End-to-end smoke: DRing + SU(2) + Pareto flows all complete.
	g, err := topology.DRing(topology.Uniform(6, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	su2, err := routing.NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRand()
	m := workload.Uniform(len(g.Racks()))
	flows, err := workload.GenerateFlows(g, m, workload.GenConfig{
		Flows:    150,
		Sizes:    workload.Pareto{MeanBytes: 30e3, Alpha: 1.05, Cap: 300e3},
		WindowNS: int64(2 * time.Millisecond),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := runFlows(t, g, su2, DefaultConfig(), flows)
	if res.Completed != len(flows) {
		t.Fatalf("completed %d/%d (stats %+v)", res.Completed, len(flows), res.Stats)
	}
}

func testRand() *rand.Rand { return rand.New(rand.NewSource(21)) }

// txTracer sums the wire bytes every link starts to transmit.
type txTracer struct {
	countTracer
	tx map[int32]uint64
}

func (c *txTracer) OnTxStart(_ int64, link, _ int32, _ bool, wireBytes int32) {
	c.tx[link] += uint64(wireBytes)
}

// traceTx installs a txTracer on s before its run.
func traceTx(t *testing.T, s *Simulator) *txTracer {
	t.Helper()
	tr := &txTracer{tx: make(map[int32]uint64)}
	if err := s.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// linkTx returns the bytes s transmitted on the directed switch link u→v,
// summed over parallel copies.
func (c *txTracer) linkTx(s *Simulator, u, v int) uint64 {
	var t uint64
	for j, w := range s.g.Neighbors(u) {
		if w == v {
			t += c.tx[s.portOff[u]+int32(j)]
		}
	}
	return t
}
