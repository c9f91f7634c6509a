// Package telemetry rolls the netsim Tracer event stream into a live
// fabric digital twin: fixed-width time-bucket series of per-link
// utilization, queue depth, drops by reason, and per-flow-class goodput,
// held in a ring buffer so a long run retains a sliding window instead of
// growing without bound.
//
// The hot path — the six Tracer hooks — allocates nothing: every series is
// preallocated at attach time from the simulator's link count and the
// run's flow count, and each hook only indexes and adds. The claim is
// pinned by TestTelemetryAddsNoAllocs (AllocsPerRun, mirroring the
// nil-tracer pin). A mutex guards the bucket state so a
// concurrent reader (the spinelessd /v1/telemetry stream) can Snapshot a
// run in flight; locking an uncontended mutex does not allocate, and the
// simulator drives all hooks from one goroutine.
//
// See DESIGN.md §14.
package telemetry

import (
	"fmt"
	"sync"

	"spineless/internal/netsim"
)

// NumDropReasons is the size of the netsim.DropReason taxonomy
// (queue / gray / blackhole).
const NumDropReasons = 3

// Config sizes a telemetry sink.
type Config struct {
	// BucketNS is the series bucket width in simulated nanoseconds
	// (default 100µs).
	BucketNS int64
	// Buckets is the ring retention window in buckets (default 512):
	// events older than Buckets×BucketNS behind the newest bucket are
	// evicted, so a sink's memory is fixed regardless of run length.
	Buckets int
	// Classes is the number of flow classes attributed separately in the
	// goodput series (default 1). Class ids come from the classOf slice
	// passed at attach time; a nil classOf puts every flow in class 0.
	Classes int
}

func (c Config) withDefaults() Config {
	if c.BucketNS <= 0 {
		c.BucketNS = 100_000
	}
	if c.Buckets <= 0 {
		c.Buckets = 512
	}
	if c.Classes <= 0 {
		c.Classes = 1
	}
	return c
}

// Sink implements netsim.Tracer over preallocated ring-buffer series for
// one simulator run. Build one with NewSink (or Recorder.Attach, which
// also installs it) before Run; read it with Snapshot at any time,
// including concurrently with the run.
type Sink struct {
	mu  sync.Mutex
	cfg Config

	links   int
	rateBps []float64 // per-link nominal capacity, bits/sec

	// head is the highest absolute bucket index seen (-1 before the first
	// event). The ring retains absolute buckets (head-Buckets, head]; slot
	// layout is [slot*width + column] so advancing the ring clears one
	// contiguous span per series.
	head      int64
	txBytes   []int64  // [slot*links + link]
	queuePeak []int64  // [slot*links + link] max FIFO bytes observed
	drops     []uint64 // [slot*NumDropReasons + reason]
	goodput   []int64  // [slot*classes + class] cumulative-ack advance

	lastAck []int64 // per flow: highest cumulative ack delivered
	classOf []uint8 // per flow class id (nil = all class 0)
	down    []bool  // per link: current fault-injected down state

	// Lifetime totals, unaffected by ring eviction.
	totTx       uint64
	totDrops    [NumDropReasons]uint64
	totGoodput  []uint64 // per class
	peakQueue   int64
	cwndUpdates uint64
	linkEvents  uint64
	linksDown   int
	late        uint64 // events behind the retention window, ignored
}

var _ netsim.Tracer = (*Sink)(nil)

// NewSink builds a sink for a fabric with links unidirectional links
// (rateBps[i] is link i's nominal capacity in bits/sec; nil skips
// utilization normalization) and a run of flows flows. classOf maps each
// flow to its class id; nil assigns every flow class 0.
func NewSink(cfg Config, links int, rateBps []float64, flows int, classOf []uint8) (*Sink, error) {
	cfg = cfg.withDefaults()
	if links <= 0 {
		return nil, fmt.Errorf("telemetry: need a positive link count, got %d", links)
	}
	if rateBps != nil && len(rateBps) != links {
		return nil, fmt.Errorf("telemetry: %d link rates for %d links", len(rateBps), links)
	}
	if classOf != nil && len(classOf) != flows {
		return nil, fmt.Errorf("telemetry: classOf covers %d of %d flows", len(classOf), flows)
	}
	for i, c := range classOf {
		if int(c) >= cfg.Classes {
			return nil, fmt.Errorf("telemetry: flow %d has class %d but the sink holds %d classes", i, c, cfg.Classes)
		}
	}
	return &Sink{
		cfg:        cfg,
		links:      links,
		rateBps:    rateBps,
		head:       -1,
		txBytes:    make([]int64, cfg.Buckets*links),
		queuePeak:  make([]int64, cfg.Buckets*links),
		drops:      make([]uint64, cfg.Buckets*NumDropReasons),
		goodput:    make([]int64, cfg.Buckets*cfg.Classes),
		lastAck:    make([]int64, flows),
		classOf:    classOf,
		down:       make([]bool, links),
		totGoodput: make([]uint64, cfg.Classes),
	}, nil
}

// bucket maps nowNS to its ring slot, advancing (and clearing) the ring
// when nowNS opens a new bucket. The second return is false for events
// behind the retention window, which are counted and dropped. Callers hold
// s.mu.
func (s *Sink) bucket(nowNS int64) (int64, bool) {
	b := nowNS / s.cfg.BucketNS
	if b > s.head {
		s.advance(b)
	}
	if b <= s.head-int64(s.cfg.Buckets) {
		s.late++
		return 0, false
	}
	return b % int64(s.cfg.Buckets), true
}

// advance moves the ring head forward to absolute bucket b, clearing every
// slot that enters the window. A jump of more than Buckets clears each
// slot exactly once.
func (s *Sink) advance(b int64) {
	n := int64(s.cfg.Buckets)
	from := s.head + 1
	if b-from >= n {
		from = b - n + 1
	}
	for h := from; h <= b; h++ {
		slot := h % n
		clear(s.txBytes[slot*int64(s.links) : (slot+1)*int64(s.links)])
		clear(s.queuePeak[slot*int64(s.links) : (slot+1)*int64(s.links)])
		clear(s.drops[slot*NumDropReasons : (slot+1)*NumDropReasons])
		clear(s.goodput[slot*int64(s.cfg.Classes) : (slot+1)*int64(s.cfg.Classes)])
	}
	s.head = b
}

// OnEnqueue records the link's post-acceptance FIFO occupancy into the
// bucket's queue-depth peak.
func (s *Sink) OnEnqueue(nowNS int64, link, flow int32, hop int, isAck bool, wireBytes int32, queueBytes int64, queueCount int) {
	s.mu.Lock()
	if slot, ok := s.bucket(nowNS); ok {
		i := slot*int64(s.links) + int64(link)
		if queueBytes > s.queuePeak[i] {
			s.queuePeak[i] = queueBytes
		}
	}
	if queueBytes > s.peakQueue {
		s.peakQueue = queueBytes
	}
	s.mu.Unlock()
}

// OnTxStart attributes the frame's wire bytes to the link's utilization
// bucket at serialization start.
func (s *Sink) OnTxStart(nowNS int64, link, flow int32, isAck bool, wireBytes int32) {
	s.mu.Lock()
	if slot, ok := s.bucket(nowNS); ok {
		s.txBytes[slot*int64(s.links)+int64(link)] += int64(wireBytes)
	}
	s.totTx += uint64(wireBytes)
	s.mu.Unlock()
}

// OnDeliver turns delivered ACKs into goodput: an ACK reaching the sender
// carries the receiver's cumulative ack in seq, so the advance over the
// flow's previous high-water mark is exactly the payload newly accepted
// in-order — retransmitted and out-of-order bytes are not double counted.
// The advance is attributed to the flow's class bucket.
func (s *Sink) OnDeliver(nowNS int64, flow int32, isAck bool, seq int64) {
	if !isAck {
		return
	}
	s.mu.Lock()
	adv := seq - s.lastAck[flow]
	if adv > 0 {
		s.lastAck[flow] = seq
		class := int64(0)
		if s.classOf != nil {
			class = int64(s.classOf[flow])
		}
		if slot, ok := s.bucket(nowNS); ok {
			s.goodput[slot*int64(s.cfg.Classes)+class] += adv
		}
		s.totGoodput[class] += uint64(adv)
	}
	s.mu.Unlock()
}

// OnDrop counts the loss into the bucket's per-reason drop series.
func (s *Sink) OnDrop(nowNS int64, link, flow int32, isAck bool, reason netsim.DropReason) {
	s.mu.Lock()
	if slot, ok := s.bucket(nowNS); ok {
		s.drops[slot*NumDropReasons+int64(reason)]++
	}
	s.totDrops[reason]++
	s.mu.Unlock()
}

// OnCwnd counts sender control-state updates; per-flow cwnd series are out
// of scope for the fabric twin (they are O(flows), not O(links)).
func (s *Sink) OnCwnd(nowNS int64, flow int32, cwnd float64, sndUna, sndNxt int64) {
	s.mu.Lock()
	s.cwndUpdates++
	s.mu.Unlock()
}

// OnStateChange tracks fault-injected link transitions so the twin can
// report how many links are down right now.
func (s *Sink) OnStateChange(nowNS int64, link int32, down bool, lossProb, rateFactor float64) {
	s.mu.Lock()
	s.linkEvents++
	if down != s.down[link] {
		s.down[link] = down
		if down {
			s.linksDown++
		} else {
			s.linksDown--
		}
	}
	s.mu.Unlock()
}

// LateEvents returns how many events arrived behind the retention window
// and were dropped from the series (they still count in lifetime totals).
func (s *Sink) LateEvents() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.late
}
