package telemetry

import (
	"strings"
	"testing"

	"spineless/internal/netsim"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// pairFabric builds a two-rack fabric with `links` parallel trunk links
// and `hosts` servers per rack (the netsim test fabric).
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

func crossFlows(n int, sizeBytes int64) []workload.Flow {
	var flows []workload.Flow
	for i := 0; i < n; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + (i+1)%4,
			SizeBytes: sizeBytes, StartNS: int64(i) * 10_000,
		})
	}
	return flows
}

// TestTelemetryAddsNoAllocs pins the telemetry hot path at zero extra
// allocations: a run observed by a preallocated Sink must allocate exactly
// as much as the same run with no tracer. This is the AllocsPerRun twin of
// the nil-tracer pin in netsim (TestNilTracerAddsNoAllocs).
func TestTelemetryAddsNoAllocs(t *testing.T) {
	g := pairFabric(t, 2, 4)
	flows := crossFlows(12, 40e3)

	// One FIB for every run: its construction draws scratch from a sync.Pool,
	// which the race detector empties at random, so a build inside the
	// measured closure would make the two counts differ by chance.
	ecmp := routing.NewECMP(g)
	probe, err := netsim.New(g, ecmp, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, probe.NumLinks())
	for i := range rates {
		rates[i] = probe.LinkRateBps(int32(i))
	}
	sink, err := NewSink(Config{BucketNS: 50_000, Buckets: 128}, probe.NumLinks(), rates, len(flows), nil)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tr netsim.Tracer) float64 {
		return testing.AllocsPerRun(5, func() {
			sim, err := netsim.New(g, ecmp, netsim.DefaultConfig())
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
	bare := run(nil)
	observed := run(sink)
	if sink.Snapshot().Totals.TxBytes == 0 {
		t.Fatal("sink never observed a transmission — the comparison is vacuous")
	}
	if int64(bare) != int64(observed) {
		t.Fatalf("bare run allocates %.0f, telemetry-observed run %.0f — the sink hot path allocates",
			bare, observed)
	}
}

// TestSinkSeriesAccounting cross-checks the rolled-up series against the
// simulator's own counters on a clean run: utilization bytes equal every
// OnTxStart, and class-0 goodput equals the bytes of every completed flow
// exactly once (cumulative-ack advance cannot double-count retransmits).
func TestSinkSeriesAccounting(t *testing.T) {
	g := pairFabric(t, 2, 4)
	flows := crossFlows(8, 60e3)
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(Config{BucketNS: 100_000, Buckets: 4096})
	if _, err := rec.Attach(sim, len(flows)); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("only %d/%d flows completed", res.Completed, len(flows))
	}

	sn := rec.Snapshot()
	if sn.Buckets() == 0 {
		t.Fatal("empty snapshot window")
	}

	var wantGoodput uint64
	for _, f := range flows {
		wantGoodput += uint64(f.SizeBytes)
	}
	if got := sn.Totals.GoodputBytes[0]; got != wantGoodput {
		t.Fatalf("class-0 goodput %d, want the %d completed payload bytes", got, wantGoodput)
	}

	// The retention window covers the whole short run, so series sums must
	// equal lifetime totals.
	var seriesTx int64
	for _, link := range sn.TxBytes {
		for _, v := range link {
			seriesTx += v
		}
	}
	if uint64(seriesTx) != sn.Totals.TxBytes {
		t.Fatalf("retained tx series sums to %d, lifetime total %d", seriesTx, sn.Totals.TxBytes)
	}
	var seriesGoodput int64
	for _, v := range sn.Goodput[0] {
		seriesGoodput += v
	}
	if uint64(seriesGoodput) != wantGoodput {
		t.Fatalf("retained goodput series sums to %d, want %d", seriesGoodput, wantGoodput)
	}
	if sn.Totals.DropsQueue != res.Stats.Drops ||
		sn.Totals.DropsGray != res.Stats.GrayDrops ||
		sn.Totals.DropsBlackhole != res.Stats.Blackholed {
		t.Fatalf("drop totals (%d,%d,%d) disagree with simulator stats (%d,%d,%d)",
			sn.Totals.DropsQueue, sn.Totals.DropsGray, sn.Totals.DropsBlackhole,
			res.Stats.Drops, res.Stats.GrayDrops, res.Stats.Blackholed)
	}
	if sink := rec.Snapshot(); sink.Totals.PeakQueueBytes < 0 {
		t.Fatal("negative queue peak")
	}
}

// TestRingEviction runs long enough to wrap a tiny ring: the snapshot
// window must stay capped at Buckets, cover the newest buckets, and the
// lifetime totals must exceed what the retained window still holds.
func TestRingEviction(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 2, SizeBytes: 400e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(Config{BucketNS: 10_000, Buckets: 4}, sim.NumLinks(), nil, len(flows), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetTracer(sink); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("flow incomplete: %+v", res)
	}
	if res.FCTNS[0] <= 4*10_000 {
		t.Fatalf("run too short (%d ns) to wrap a 4×10µs ring", res.FCTNS[0])
	}
	sn := sink.Snapshot()
	if sn.Buckets() != 4 {
		t.Fatalf("retained window %d buckets, want the ring size 4", sn.Buckets())
	}
	var retained int64
	for _, link := range sn.TxBytes {
		for _, v := range link {
			retained += v
		}
	}
	if uint64(retained) >= sn.Totals.TxBytes {
		t.Fatalf("retained %d bytes >= lifetime %d — nothing was evicted", retained, sn.Totals.TxBytes)
	}
	wantFirst := sn.FirstBucket + int64(sn.Buckets()) - 1
	if lastBucket := res.FCTNS[0] / 10_000; wantFirst > lastBucket {
		t.Fatalf("window head bucket %d is past the run's last event bucket %d", wantFirst, lastBucket)
	}
	if sink.LateEvents() != 0 {
		t.Fatalf("%d late events on a monotone serial run", sink.LateEvents())
	}
}

// TestSnapshotMerge drives two hand-fed sinks and checks the trial-pooling
// convention: counters sum, queue peaks max, windows union.
func TestSnapshotMerge(t *testing.T) {
	mk := func() *Sink {
		s, err := NewSink(Config{BucketNS: 100, Buckets: 8, Classes: 2}, 2, nil, 4, []uint8{0, 1, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()

	a.OnTxStart(50, 0, 0, false, 1000)            // bucket 0, link 0
	a.OnEnqueue(50, 0, 0, 0, false, 1000, 900, 1) // queue peak 900
	a.OnDeliver(150, 1, true, 500)                // bucket 1, class 1 goodput
	a.OnDrop(150, 1, 0, false, netsim.DropQueue)

	b.OnTxStart(250, 0, 0, false, 2000)             // bucket 2, link 0
	b.OnEnqueue(250, 0, 0, 0, false, 2000, 1500, 2) // queue peak 1500
	b.OnDeliver(150, 2, true, 300)                  // bucket 1, class 0
	b.OnDrop(250, 1, 0, false, netsim.DropBlackhole)

	sn := a.Snapshot()
	if err := sn.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if sn.FirstBucket != 0 || sn.Buckets() != 3 {
		t.Fatalf("merged window [%d,+%d), want [0,+3)", sn.FirstBucket, sn.Buckets())
	}
	if sn.TxBytes[0][0] != 1000 || sn.TxBytes[0][2] != 2000 {
		t.Fatalf("tx series %v, want 1000@0 and 2000@2", sn.TxBytes[0])
	}
	if sn.QueuePeak[0][0] != 900 || sn.QueuePeak[0][2] != 1500 {
		t.Fatalf("queue peak series %v", sn.QueuePeak[0])
	}
	if sn.Goodput[0][1] != 300 || sn.Goodput[1][1] != 500 {
		t.Fatalf("goodput by class %v / %v", sn.Goodput[0], sn.Goodput[1])
	}
	if sn.Drops[int(netsim.DropQueue)][1] != 1 || sn.Drops[int(netsim.DropBlackhole)][2] != 1 {
		t.Fatalf("drop series %v", sn.Drops)
	}
	if sn.Totals.TxBytes != 3000 || sn.Totals.PeakQueueBytes != 1500 {
		t.Fatalf("totals %+v", sn.Totals)
	}
	if sn.Totals.GoodputBytes[0] != 300 || sn.Totals.GoodputBytes[1] != 500 {
		t.Fatalf("goodput totals %v", sn.Totals.GoodputBytes)
	}

	// Shape mismatches are refused, not silently mangled.
	odd, err := NewSink(Config{BucketNS: 100, Buckets: 8}, 3, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Merge(odd.Snapshot()); err == nil {
		t.Fatal("merging a 3-link snapshot into a 2-link one succeeded")
	}
}

// TestClassAttribution checks per-class goodput through Recorder.SetClassOf
// on a real run: both classes earn goodput and the classes partition the
// completed bytes exactly.
func TestClassAttribution(t *testing.T) {
	g := pairFabric(t, 2, 4)
	flows := crossFlows(8, 50e3)
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(Config{Classes: 2})
	rec.SetClassOf(func(flow int) uint8 { return uint8(flow % 2) })
	if _, err := rec.Attach(sim, len(flows)); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("only %d/%d flows completed", res.Completed, len(flows))
	}
	sn := rec.Snapshot()
	var want uint64
	for _, f := range flows {
		want += uint64(f.SizeBytes)
	}
	if sn.Totals.GoodputBytes[0] == 0 || sn.Totals.GoodputBytes[1] == 0 {
		t.Fatalf("a class earned no goodput: %v", sn.Totals.GoodputBytes)
	}
	if got := sn.Totals.GoodputBytes[0] + sn.Totals.GoodputBytes[1]; got != want {
		t.Fatalf("classes sum to %d goodput bytes, want %d", got, want)
	}
}

// TestUtilHeatmapRendersEmptyCells ties the twin to the Heatmap CSV fix:
// links that never transmitted stay unset and render as empty CSV fields,
// not literal NaN.
func TestUtilHeatmapRendersEmptyCells(t *testing.T) {
	sink, err := NewSink(Config{BucketNS: 100, Buckets: 8}, 2, []float64{8e11, 8e11}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink.OnTxStart(50, 0, 0, false, 1000) // only link 0, bucket 0
	sink.OnTxStart(150, 0, 0, false, 1000)
	h := sink.Snapshot().UtilHeatmap("util", 2)
	csv := "\n" + h.CSV()
	if want := "\n0,0.1000,0.1000\n"; !strings.Contains(csv, want) {
		t.Fatalf("heatmap CSV missing utilization row %q:%s", want, csv)
	}
	if want := "\n1,,\n"; !strings.Contains(csv, want) {
		t.Fatalf("idle link should render empty cells, got:%s", csv)
	}
}
