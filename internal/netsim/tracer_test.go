package netsim

import (
	"strings"
	"testing"
	"time"

	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// countTracer is an allocation-free Tracer that only counts invocations —
// the cheapest possible observer, used to show the hooks themselves do not
// allocate.
type countTracer struct {
	calls uint64
}

func (c *countTracer) OnEnqueue(int64, int32, int32, int, bool, int32, int64, int) { c.calls++ }
func (c *countTracer) OnTxStart(int64, int32, int32, bool, int32)                  { c.calls++ }
func (c *countTracer) OnDeliver(int64, int32, bool, int64)                         { c.calls++ }
func (c *countTracer) OnDrop(int64, int32, int32, bool, DropReason)                { c.calls++ }
func (c *countTracer) OnCwnd(int64, int32, float64, int64, int64)                  { c.calls++ }
func (c *countTracer) OnStateChange(int64, int32, bool, float64, float64)          { c.calls++ }

// TestNilTracerAddsNoAllocs pins the disabled-tracing path at zero extra
// allocations: a run with no tracer must allocate exactly as much as the
// same run observed by an allocation-free tracer, proving the hooks pass
// scalars only and the nil check is the whole cost of the feature. The
// absolute hot-path count is pinned separately by TestRunAllocsPin.
func TestNilTracerAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	g := pairFabric(t, 2, 4)
	var flows []workload.Flow
	for i := 0; i < 12; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + (i+1)%4,
			SizeBytes: 40e3, StartNS: int64(i) * 10_000,
		})
	}
	counter := &countTracer{}
	// The FIB is built once outside the measured runs: its construction draws
	// scratch from a sync.Pool, which the race detector empties at random, so
	// a build inside the closure would make the two counts differ by chance.
	ecmp := routing.NewECMP(g)
	run := func(tr Tracer) float64 {
		return testing.AllocsPerRun(5, func() {
			sim, err := New(g, ecmp, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if tr != nil {
				if err := sim.SetTracer(tr); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sim.Run(flows); err != nil {
				t.Fatal(err)
			}
		})
	}
	nilAllocs := run(nil)
	tracedAllocs := run(counter)
	if counter.calls == 0 {
		t.Fatal("tracer hooks never fired — the comparison is vacuous")
	}
	if int64(nilAllocs) != int64(tracedAllocs) {
		t.Fatalf("nil-tracer run allocates %.0f, traced run %.0f — hooks are no longer allocation-free",
			nilAllocs, tracedAllocs)
	}
}

// TestSetTracerRefusesSecondTracer is the regression test for the tracer
// slot silently replacing its occupant. The experiment layers attach
// observers in one place (core.Observers), but the spineless facade hands
// out NewSimulator, AttachAuditor and NewTelemetryRecorder separately, so a
// caller can attach an auditor and then a telemetry sink to one simulator;
// the second install must fail loudly instead of voiding the audit. A nil
// tracer on a fresh simulator stays legal and SetTracer after Run stays an
// error.
func TestSetTracerRefusesSecondTracer(t *testing.T) {
	g := pairFabric(t, 1, 2)
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetTracer(nil); err != nil {
		t.Fatalf("nil tracer on a fresh simulator: %v", err)
	}
	first := &countTracer{}
	if err := sim.SetTracer(first); err != nil {
		t.Fatal(err)
	}
	err = sim.SetTracer(&countTracer{})
	if err == nil || !strings.Contains(err.Error(), "tracer") || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second SetTracer: err = %v, want one saying a tracer is already installed", err)
	}
	if _, err := sim.Run([]workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 20e3}}); err != nil {
		t.Fatal(err)
	}
	if first.calls == 0 {
		t.Fatal("the first tracer was displaced: it observed nothing")
	}
	if err := sim.SetTracer(nil); err == nil {
		t.Fatal("SetTracer after Run succeeded")
	}
}

// TestFlowletRehashTrunkedPair is the regression test for the negative
// path-hash index: the flowlet rehash spec.ID ^ (flowletID·0x9e3779b97f4a7c15)
// sets the hash's top bit, and the old int conversion before the modulo
// produced a negative index into the parallel-link copies of a trunked pair
// (panic: index out of range [-1]).
func TestFlowletRehashTrunkedPair(t *testing.T) {
	g := pairFabric(t, 2, 2)
	cfg := DefaultConfig()
	cfg.FlowletTimeout = time.Nanosecond
	res := runFlows(t, g, routing.NewECMP(g), cfg, []workload.Flow{
		{ID: 0, Src: 0, Dst: 2, SizeBytes: 500e3},
	})
	if res.Completed != 1 {
		t.Fatalf("flow incomplete: %+v", res)
	}
	if res.Stats.FlowletSwitches == 0 {
		t.Fatal("no flowlet switches fired — the regression trigger is gone")
	}
}

// TestStartDuringPartitionCompletes is the regression test for reroute()
// stranding flows whose racks were unreachable when they started: phase 0
// has no route between the racks (the flow starts with nil paths), phase 1
// restores it. The flow must initialize its sender at the boundary and
// complete, instead of staying stranded forever.
func TestStartDuringPartitionCompletes(t *testing.T) {
	g := pairFabric(t, 1, 2)
	part := topology.New("partitioned", 2, 3)
	part.SetServers(0, 2)
	part.SetServers(1, 2)
	tv, err := routing.NewTimeVarying(
		routing.Phase{StartNS: 0, Scheme: routing.NewECMP(part)},
		routing.Phase{StartNS: 1_000_000, Scheme: routing.NewECMP(g)},
	)
	if err != nil {
		t.Fatal(err)
	}
	res := runFlows(t, g, tv, DefaultConfig(), []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: 100e3, StartNS: 0},
	})
	if res.Completed != 1 {
		t.Fatalf("start-during-partition flow never completed: %+v", res)
	}
	if res.FCTNS[0] < 1_000_000 {
		t.Fatalf("FCT %d ns is before the repair boundary — partition phase was not in force", res.FCTNS[0])
	}
	if res.Stats.Reroutes == 0 {
		t.Fatal("no reroutes recorded at the repair boundary")
	}
}

// queuedSimulator returns a simulator on a two-switch fabric whose first
// host uplink is serializing one packet with three more queued behind it,
// and the three queued ids in FIFO order.
func queuedSimulator(t *testing.T) (*Simulator, *link, [3]int32) {
	t.Helper()
	g := pairFabric(t, 1, 2)
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.events.reset(1)
	up := sim.hostUp[0]
	sim.paths = []int32{up}
	var queued [3]int32
	for i := 0; i < 4; i++ {
		id, p := sim.alloc()
		p.wireSize = int32(100 + i)
		p.path = pathRef{off: 0, n: 1}
		sim.enterLink(id)
		if i > 0 {
			queued[i-1] = id
		}
	}
	l := &sim.links[up]
	if !l.busy || l.qCount != 3 || l.qHead != queued[0] || l.qTail != queued[2] {
		t.Fatalf("setup: busy=%v, %d queued from %d to %d, want 3 from %d to %d",
			l.busy, l.qCount, l.qHead, l.qTail, queued[0], queued[2])
	}
	return sim, l, queued
}

// TestSelfAuditCatchesPlantedDefects plants each accounting defect that
// SelfAudit is documented to catch (DESIGN.md §9) into an otherwise clean
// simulator and checks that SelfAudit names it. A defect that corrupts
// nothing else must be the only violation reported.
func TestSelfAuditCatchesPlantedDefects(t *testing.T) {
	sim, _, _ := queuedSimulator(t)
	if v := sim.SelfAudit(); v != nil {
		t.Fatalf("clean simulator: SelfAudit = %q, want nil", v)
	}
	cases := []struct {
		name  string
		plant func(s *Simulator, l *link, q [3]int32)
		want  string
		alone bool
	}{
		{"cycle", func(s *Simulator, l *link, q [3]int32) { s.pkt(q[2]).qnext = q[0] }, "FIFO chain exceeds", false},
		{"tail", func(s *Simulator, l *link, q [3]int32) { l.qTail = q[1] }, "qTail does not terminate", true},
		{"bytes", func(s *Simulator, l *link, q [3]int32) { l.queueBytes++ }, "queueBytes=", true},
		{"double free", func(s *Simulator, l *link, q [3]int32) {
			if err := s.SetTracer(&countTracer{}); err != nil {
				t.Fatal(err)
			}
			id, _ := s.alloc()
			s.free(id)
			s.free(id)
		}, "double-freed", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, l, q := queuedSimulator(t)
			c.plant(sim, l, q)
			v := sim.SelfAudit()
			found := false
			for _, msg := range v {
				found = found || strings.Contains(msg, c.want)
			}
			if !found || (c.alone && len(v) != 1) {
				t.Fatalf("SelfAudit = %q, want a violation containing %q (alone: %v)", v, c.want, c.alone)
			}
		})
	}
}
