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
// absolute hot-path count is pinned separately by TestRunAllocsPin (at most
// 416 allocs).
func TestNilTracerAddsNoAllocs(t *testing.T) {
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
	cfg := DefaultConfig().WithFlowlets(time.Nanosecond)
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
