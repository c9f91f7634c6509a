package netsim

import (
	"testing"
	"time"

	"spineless/internal/routing"
	"spineless/internal/workload"
)

// TestSlowStartRampLossless checks that an uncontended flow's completion
// time tracks slow-start arithmetic: roughly log2(size/initcwnd·MSS) RTTs
// of ramp plus serialization at line rate.
func TestSlowStartRampLossless(t *testing.T) {
	g := pairFabric(t, 1, 2)
	cfg := DefaultConfig()
	cfg.InitCwnd = 2
	size := int64(512 * 1460) // 512 segments
	res := runFlows(t, g, routing.NewECMP(g), cfg, []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: size},
	})
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	// Serialization: 512 × 1500B at 10 Gbps ≈ 614 µs. Ramp from cwnd 2 to
	// BDP doubles per RTT (~3 hops × 1 µs ≈ small); total must be within
	// ~40% of serialization since ramp overlaps little here.
	ser := 512.0 * 1500 * 8 / 10e9 * 1e9
	if f := float64(res.FCTNS[0]); f < ser || f > 1.4*ser {
		t.Fatalf("FCT %v ns vs serialization %v ns", f, ser)
	}
	if res.Stats.Retransmits != 0 || res.Stats.Drops != 0 {
		t.Fatalf("lossless path saw loss: %+v", res.Stats)
	}
}

// TestFastRetransmitNotTimeout drops occur under moderate multiplexing but
// recovery should be dominated by fast retransmit, not RTO.
func TestFastRetransmitNotTimeout(t *testing.T) {
	g := pairFabric(t, 1, 6)
	cfg := DefaultConfig()
	cfg.QueueBytes = 20 * 1500 // shallow queue to force drops
	var flows []workload.Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i, Dst: 6 + i, SizeBytes: 2 << 20,
		})
	}
	res := runFlows(t, g, routing.NewECMP(g), cfg, flows)
	if res.Completed != 6 {
		t.Fatalf("completed %d/6", res.Completed)
	}
	if res.Stats.Drops == 0 {
		t.Fatal("expected drops with shallow queues")
	}
	if res.Stats.Retransmits == 0 {
		t.Fatal("no retransmits despite drops")
	}
	if res.Stats.Timeouts*5 > res.Stats.Retransmits {
		t.Fatalf("recovery is timeout-dominated: %+v", res.Stats)
	}
}

// TestGoodputConservation verifies delivered bytes equal flow sizes: the
// receiver-side cumulative ack discipline cannot complete a flow without
// every byte arriving.
func TestGoodputConservation(t *testing.T) {
	g := pairFabric(t, 2, 4)
	cfg := DefaultConfig()
	cfg.QueueBytes = 10 * 1500 // heavy loss
	var flows []workload.Flow
	var total int64
	for i := 0; i < 8; i++ {
		sz := int64(100e3 + 40e3*int64(i))
		total += sz
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + i%4, SizeBytes: sz,
		})
	}
	res := runFlows(t, g, routing.NewECMP(g), cfg, flows)
	if res.Completed != 8 {
		t.Fatalf("completed %d/8 (%+v)", res.Completed, res.Stats)
	}
	// Data packets sent must cover at least total/MSS segments (more with
	// retransmissions), and the simulator must have dropped some.
	minSegs := uint64(total / 1460)
	if res.Stats.DataPackets < minSegs {
		t.Fatalf("sent %d data packets < %d segments", res.Stats.DataPackets, minSegs)
	}
	if res.Stats.Drops == 0 {
		t.Fatal("expected loss under 10-packet queues")
	}
}

// TestRTOBackstop: with a queue too small for even one window, dupacks may
// never arrive; RTO must still complete the flow.
func TestRTOBackstop(t *testing.T) {
	g := pairFabric(t, 1, 2)
	cfg := DefaultConfig()
	cfg.QueueBytes = 2 * 1500
	cfg.InitCwnd = 64 // blast far beyond the queue
	res := runFlows(t, g, routing.NewECMP(g), cfg, []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, SizeBytes: 600e3},
	})
	if res.Completed != 1 {
		t.Fatalf("flow never completed: %+v", res.Stats)
	}
	if res.Stats.Timeouts == 0 {
		t.Fatal("expected at least one RTO with a 2-packet queue and cwnd 64")
	}
}

// TestFCTMonotoneInSize: larger flows on an identical quiet path take
// longer.
func TestFCTMonotoneInSize(t *testing.T) {
	sizes := []int64{10e3, 100e3, 1e6, 10e6}
	var prev int64
	for _, sz := range sizes {
		g := pairFabric(t, 1, 2)
		res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), []workload.Flow{
			{ID: 1, Src: 0, Dst: 2, SizeBytes: sz},
		})
		if res.Completed != 1 {
			t.Fatalf("size %d incomplete", sz)
		}
		if res.FCTNS[0] <= prev {
			t.Fatalf("FCT not monotone: size %d → %d ns (prev %d)", sz, res.FCTNS[0], prev)
		}
		prev = res.FCTNS[0]
	}
}

// TestStartTimeOffsetsRespected: a flow cannot finish before it starts, and
// staggered identical flows on disjoint host pairs keep their stagger.
func TestStartTimeOffsetsRespected(t *testing.T) {
	g := pairFabric(t, 4, 4)
	delay := int64(2 * time.Millisecond)
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 4, SizeBytes: 50e3, StartNS: 0},
		{ID: 2, Src: 1, Dst: 5, SizeBytes: 50e3, StartNS: delay},
	}
	sim, err := New(g, routing.NewECMP(g), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatal("incomplete")
	}
	// FCT excludes the start offset; with disjoint paths both should be
	// nearly identical.
	d := res.FCTNS[0] - res.FCTNS[1]
	if d < 0 {
		d = -d
	}
	if float64(d) > 0.2*float64(res.FCTNS[0]) {
		t.Fatalf("staggered equal flows diverged: %v vs %v", res.FCTNS[0], res.FCTNS[1])
	}
	if sim.now < delay {
		t.Fatalf("simulation ended at %d before second flow started", sim.now)
	}
}

// TestAckPathCongestionAffectsFlow: reverse-direction bulk traffic congests
// the ACK path and must slow the forward flow measurably (ack clocking).
func TestAckPathCongestion(t *testing.T) {
	g := pairFabric(t, 1, 4)
	solo := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), []workload.Flow{
		{ID: 1, Src: 0, Dst: 4, SizeBytes: 2 << 20},
	})
	g2 := pairFabric(t, 1, 4)
	both := runFlows(t, g2, routing.NewECMP(g2), DefaultConfig(), []workload.Flow{
		{ID: 1, Src: 0, Dst: 4, SizeBytes: 2 << 20},
		{ID: 2, Src: 5, Dst: 1, SizeBytes: 2 << 20}, // reverse direction
	})
	if solo.Completed != 1 || both.Completed != 2 {
		t.Fatal("incomplete")
	}
	if both.FCTNS[0] < solo.FCTNS[0] {
		t.Fatalf("reverse traffic sped up the flow: %v vs %v", both.FCTNS[0], solo.FCTNS[0])
	}
}

// TestHostLinkSerialization: two flows from the same host share its NIC
// even when the fabric has spare capacity.
func TestHostLinkSharing(t *testing.T) {
	g := pairFabric(t, 4, 4) // 4 parallel inter-ToR links: fabric not limiting
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 4, SizeBytes: 1 << 20},
		{ID: 2, Src: 0, Dst: 5, SizeBytes: 1 << 20}, // same source host
	}
	res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
	if res.Completed != 2 {
		t.Fatal("incomplete")
	}
	// Sharing one 10G NIC, combined goodput ≤ 10G.
	last := max(res.FCTNS[0], res.FCTNS[1])
	goodput := float64(2<<20) * 8 / (float64(last) / 1e9)
	if goodput > 10e9 {
		t.Fatalf("goodput %v exceeds the shared host NIC", goodput)
	}
}
