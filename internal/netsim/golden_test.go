package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"spineless/internal/faults"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// resultDigest hashes everything a Run reports: every flow's FCT, the
// completion count, all Stats counters, the blackhole window and the
// RTO-victim count, with sim's clock after the run.
func resultDigest(t *testing.T, sim *Simulator, res Results) string {
	t.Helper()
	h := sha256.New()
	for _, v := range []any{res.FCTNS, int64(res.Completed), sim.now, res.Stats,
		res.BlackholeFirstNS, res.BlackholeLastNS, int64(res.FlowsWithRTO)} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDRing is a small DRing with a seeded Pareto workload: 400 flows
// over 1 ms, sorted by start time the way the generator emits them.
func goldenDRing(t *testing.T) (*topology.Graph, []workload.Flow) {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.GenerateFlows(g, workload.Uniform(len(g.Racks())), workload.GenConfig{
		Flows:    400,
		Sizes:    workload.Pareto{MeanBytes: 60e3, Alpha: 1.05, Cap: 600e3},
		WindowNS: int64(time.Millisecond),
	}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	return g, flows
}

// wrapScheme stands between a golden case's scheme and the simulator.
type wrapScheme func(routing.Scheme) routing.Scheme

// goldenCase is one pinned whole run. run builds its fabric, scheme and
// flows and passes the scheme through wrap before the simulator sees it.
type goldenCase struct {
	name string
	want string
	run  func(t *testing.T, wrap wrapScheme) (*Simulator, Results)
}

// goldenCases are the runs TestRunGoldenDigests pins. Each digest was
// computed by the single-binary-heap event queue, so any change to the
// event order — the (t, seq) total order every handler, Stats.Events and
// FCT depend on — fails here. Together the cases reach every event kind:
// starts (in and out of time order), transmissions, deliveries, live and
// stale RTO timers, fault batches and routing phase boundaries.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"tcp", "2b1fdda7161a79f0a1afa40b74ef3b088cb5102b5508af17b1785e65bf0f2bb7", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			g, flows := goldenDRing(t)
			return runSim(t, g, wrap(routing.NewECMP(g)), DefaultConfig(), flows)
		}},
		{"dctcp", "bef893e7ea288623d3f12e94346cd693412dd9d452e793bd6e9226884b517586", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			g, flows := goldenDRing(t)
			sim, res := runSim(t, g, wrap(routing.NewECMP(g)), DefaultConfig().WithDCTCP(), flows)
			if res.Stats.ECNMarks == 0 {
				t.Fatal("no packet was CE-marked")
			}
			return sim, res
		}},
		{"flowlets", "f7d5a07752236dbb2d0a4f4002abc0a53aaf3b26ec7f53660d988667a71fb491", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			g, flows := goldenDRing(t)
			su2, err := routing.NewShortestUnion(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.FlowletTimeout = 5 * time.Microsecond
			sim, res := runSim(t, g, wrap(su2), cfg, flows)
			if res.Stats.FlowletSwitches == 0 {
				t.Fatal("no flowlet switched paths")
			}
			return sim, res
		}},
		{"faults", "de83818b11c39f181df8279b433dd0a67b9577a2f4336488fb96dcb34747037e", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			g, flows := goldenDRing(t)
			sched := &faults.Schedule{Seed: 5}
			sched.Cut(300_000, 0, g.Neighbors(0)[0])
			sched.Restore(900_000, 0, g.Neighbors(0)[0])
			sched.Flap(1, g.Neighbors(1)[0], 200_000, 100_000, 150_000, 3)
			sched.Gray(100_000, 2, g.Neighbors(2)[0], 0.05, 0.5)
			sched.Events = append(sched.Events, faults.Event{TimeNS: 1_500_000, Kind: faults.GrayClear, A: 2, B: g.Neighbors(2)[0]})
			sim, err := New(g, wrap(routing.NewECMP(g)), DefaultConfig())
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
			if res.Stats.Blackholed == 0 || res.Stats.GrayDrops == 0 {
				t.Fatalf("faults never bit: %+v", res.Stats)
			}
			return sim, res
		}},
		{"reroute", "360bd5b747e847d2e973c21a3aa1cf88ad7cc380f024a2d60c655dba4177ba4d", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			g, flows := goldenDRing(t)
			v := g.Neighbors(0)[0]
			degraded := g.Clone()
			degraded.RemoveLink(0, v)
			tv, err := routing.NewTimeVarying(
				routing.Phase{StartNS: 0, Scheme: routing.NewECMP(g)},
				routing.Phase{StartNS: 700_000, Scheme: routing.NewECMP(degraded)},
			)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := New(g, wrap(tv), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sched := &faults.Schedule{Seed: 9}
			sched.Cut(400_000, 0, v)
			if err := sim.InstallFaults(sched); err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(flows)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Reroutes == 0 {
				t.Fatal("no flow was re-pathed at the phase boundary")
			}
			return sim, res
		}},
		{"incast", "f3213dc50303766ac2532de3c64a16d34bf98eb1585ef3719b0ea1cb13a390aa", func(t *testing.T, wrap wrapScheme) (*Simulator, Results) {
			// 16 senders into one host through an 8-packet queue, started
			// in reverse time order so the start events arrive unsorted.
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
					ID: uint64(i), Src: 1 + i, Dst: 0, SizeBytes: 200e3,
					StartNS: int64(15-i) * 3000,
				})
			}
			cfg := DefaultConfig()
			cfg.QueueBytes = 8 * 1500
			sim, res := runSim(t, g, wrap(routing.NewECMP(g)), cfg, flows)
			if res.Stats.Timeouts == 0 {
				t.Fatalf("no live RTO fired: %+v", res.Stats)
			}
			return sim, res
		}},
	}
}

// checkGolden runs every golden case with its scheme passed through wrap
// and compares each digest with the pinned one.
func checkGolden(t *testing.T, wrap func(*testing.T, routing.Scheme) routing.Scheme) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			sim, res := c.run(t, func(s routing.Scheme) routing.Scheme { return wrap(t, s) })
			if res.Completed != len(res.FCTNS) {
				t.Fatalf("completed %d/%d", res.Completed, len(res.FCTNS))
			}
			if got := resultDigest(t, sim, res); got != c.want {
				t.Errorf("digest %s, want %s (stats %+v)", got, c.want, res.Stats)
			}
		})
	}
}

// TestRunGoldenDigests pins whole runs bit for bit (see goldenCases).
func TestRunGoldenDigests(t *testing.T) {
	checkGolden(t, func(_ *testing.T, s routing.Scheme) routing.Scheme { return s })
}

// TestRunRoutesThroughAppendPath replays the golden runs with every scheme
// wrapped so that Path fails the test: the simulator must take each switch
// path from AppendPath into its reused buffers — at flow start, at a
// flowlet re-hash and at a reroute boundary — and still reproduce every
// pinned digest.
func TestRunRoutesThroughAppendPath(t *testing.T) {
	checkGolden(t, forbidPath)
}

// noPath is a Scheme whose Path fails the test; every other method is the
// wrapped scheme's.
type noPath struct {
	routing.Scheme
	t *testing.T
}

func (s noPath) Path(src, dst int, flowID uint64) []int {
	s.t.Fatalf("%s.Path(%d, %d, %#x) called; the simulator routes through AppendPath", s.Name(), src, dst, flowID)
	return nil
}

// noPathTimed is noPath for a TimeScheme: every phase SchemeAt serves is
// wrapped too.
type noPathTimed struct {
	noPath
	tv routing.TimeScheme
}

func (s noPathTimed) SchemeAt(tNS int64) routing.Scheme { return noPath{s.tv.SchemeAt(tNS), s.t} }
func (s noPathTimed) Boundaries() []int64               { return s.tv.Boundaries() }

// forbidPath wraps s in noPath, or in noPathTimed when s is a TimeScheme.
func forbidPath(t *testing.T, s routing.Scheme) routing.Scheme {
	if tv, ok := s.(routing.TimeScheme); ok {
		return noPathTimed{noPath{s, t}, tv}
	}
	return noPath{s, t}
}

// pinWorkload is BenchmarkNetsimEvents' shape: a DRing(6, 2, 24) and 200
// Pareto flows over 4 ms.
func pinWorkload(t *testing.T) (*topology.Graph, []workload.Flow) {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.GenerateFlows(g, workload.Uniform(len(g.Racks())), workload.GenConfig{
		Flows:    200,
		Sizes:    workload.Pareto{MeanBytes: 30e3, Alpha: 1.05, Cap: 300e3},
		WindowNS: int64(4 * time.Millisecond),
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return g, flows
}

// TestRunAllocsPin pins New + Run on pinWorkload under ECMP: 8 objects and
// 57,688 bytes a run when set, with both bounds about 10% above. No
// allocation is made per flow (paths are looked up into reused buffers),
// so one that creeps in adds 200 and fails here. Run's scratch comes back
// from runPool warm (TestRunReusesRunState), so what is left is New's link
// table, the packet chunks and the FCT slice.
func TestRunAllocsPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	const maxAllocs, maxBytes = 9, 63_500
	g, flows := pinWorkload(t)
	ecmp := routing.NewECMP(g)
	run := func() {
		sim, err := New(g, ecmp, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(flows); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	// One P, as inside AllocsPerRun, so the run state comes back from the
	// same pool slot while the bytes are counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("New + Run: %.0f allocs, %d B", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("New + Run allocates %.0f objects, want at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("New + Run allocates %d B, want at most %d", bytes, maxBytes)
	}
}

// keepFCT and keepChunks hold what TestRunReusesRunState's replay
// allocates, so the allocations escape to the heap as a run's do.
var (
	keepFCT    []int64
	keepChunks [][]packet
)

// TestRunReusesRunState checks that Run's scratch — event lanes and heap,
// flow table with its out-of-order maps, path arena, lookup buffers —
// comes back from runPool. After one warm-up run on pinWorkload, each of
// five runs on freshly built simulators may allocate only what the run
// leaves with its caller and its Simulator: the FCT slice, and the packet
// chunks with the table that lists them. The test replays exactly those
// allocations, with the same types and sizes, and Run must allocate no
// more objects and no more bytes than the replay. A flow table, event
// backing or lane regrowth costs kilobytes, far past any rounding.
func TestRunReusesRunState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	// One P throughout: a sync.Pool's per-P private slot is invisible to
	// the other Ps, so a warm-up on one P and a run on another would find
	// the pool empty.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, flows := pinWorkload(t)
	ecmp := routing.NewECMP(g)
	newSim := func() *Simulator {
		sim, err := New(g, ecmp, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	if _, err := newSim().Run(flows); err != nil {
		t.Fatal(err)
	}
	sims := make([]*Simulator, 5)
	for i := range sims {
		sims[i] = newSim()
	}
	measure := func(f func()) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	runAllocs, runBytes := measure(func() {
		for _, sim := range sims {
			if _, err := sim.Run(flows); err != nil {
				t.Fatal(err)
			}
		}
	})
	wantAllocs, wantBytes := measure(func() {
		for _, sim := range sims {
			keepFCT = make([]int64, len(flows))
			keepChunks = nil
			for range sim.pkts {
				keepChunks = append(keepChunks, make([]packet, pktChunkSize))
			}
		}
	})
	keepFCT, keepChunks = nil, nil
	t.Logf("5 warm runs: %d allocs, %d B; FCT slices and packet chunks: %d allocs, %d B",
		runAllocs, runBytes, wantAllocs, wantBytes)
	if runAllocs > wantAllocs || runBytes > wantBytes {
		t.Errorf("5 warm runs allocate %d objects and %d B, more than their FCT slices and packet chunks (%d, %d B): run scratch is not reused",
			runAllocs, runBytes, wantAllocs, wantBytes)
	}
}
