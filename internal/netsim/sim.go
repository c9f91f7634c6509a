package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"spineless/internal/faults"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// Simulator runs packet-level TCP simulations over one fabric and routing
// scheme. It is single-goroutine and fully deterministic: the same fabric,
// scheme, config, flow list and fault schedule always produce identical
// results (gray-failure loss draws come from the schedule's own seed).
type Simulator struct {
	g   *topology.Graph
	cfg Config

	// activeScheme is the scheme serving new path lookups right now. It
	// starts as New's scheme (or a TimeScheme's phase 0) and advances at evReroute
	// boundaries, replaying BGP reconvergence: flows keep their stale paths
	// until the boundary, then re-resolve onto the repaired FIB.
	activeScheme routing.Scheme
	tv           routing.TimeScheme

	links []link
	// ackWire and mssWire are the wire sizes of a pure ACK and a full data
	// segment, whose serialization times every link caches (see link).
	ackWire, mssWire int32
	// Switch links are numbered by topology's port numbering: u's j-th
	// adjacency entry is link portOff[u]+j. Host links follow.
	portOff  []int32
	hostUp   []int32
	hostDown []int32

	faultEvents    []faults.Event
	faultIdx       int
	faultRNG       *rand.Rand
	blackholeFirst int64
	blackholeLast  int64

	// runState is the scratch of the one Run; it is empty before Run and
	// after it (see runState).
	runState
	ran  bool // Run has started: a Simulator runs once
	done int

	seqCounter uint64
	now        int64

	// pkts holds every packet ever carved, in fixed chunks of pktChunkSize
	// (see Simulator.pkt); pktCount of them are carved. Freed packets form
	// a stack threaded through packet.qnext, headed by freePkt.
	pkts     [][]packet
	pktCount int32
	freePkt  int32

	// tracer, when non-nil, observes the data plane (see Tracer). Every
	// hook sits behind a nil check so the disabled path costs nothing.
	tracer Tracer
	// allocCount/freeCount track pooled-packet issuance so audited runs
	// can account for packets still in flight at the end of a run.
	allocCount uint64
	freeCount  uint64
	// violations collects internal invariant breaches (double frees,
	// non-monotone event times) observed while a tracer is installed.
	violations []string

	stats Stats
}

// Stats aggregates data-plane counters across a run.
type Stats struct {
	Events          uint64
	DataPackets     uint64
	AckPackets      uint64
	Retransmits     uint64
	Timeouts        uint64
	Drops           uint64
	ECNMarks        uint64
	FlowletSwitches uint64

	// Fault-injection counters (zero without an installed schedule).
	Blackholed uint64 // packets lost into a down link (stale-FIB blackhole)
	GrayDrops  uint64 // packets lost to gray-failure random loss
	Reroutes   uint64 // live flows re-pathed at a routing phase boundary
}

// Accumulate adds o's counters into s — used to pool the per-trial stats of
// a multi-window experiment into one aggregate.
func (s *Stats) Accumulate(o Stats) {
	s.Events += o.Events
	s.DataPackets += o.DataPackets
	s.AckPackets += o.AckPackets
	s.Retransmits += o.Retransmits
	s.Timeouts += o.Timeouts
	s.Drops += o.Drops
	s.ECNMarks += o.ECNMarks
	s.FlowletSwitches += o.FlowletSwitches
	s.Blackholed += o.Blackholed
	s.GrayDrops += o.GrayDrops
	s.Reroutes += o.Reroutes
}

// Results reports per-flow outcomes of a run.
type Results struct {
	// FCTNS[i] is flow i's completion time in ns, or -1 if it did not finish
	// before MaxSimTime.
	FCTNS     []int64
	Completed int
	Stats     Stats

	// BlackholeFirstNS/BlackholeLastNS bracket the observed blackhole
	// window (-1 when no packet was blackholed): the span between the first
	// and last packet lost into a down link.
	BlackholeFirstNS int64
	BlackholeLastNS  int64
	// FlowsWithRTO counts flows that hit at least one retransmission
	// timeout — the transport-visible victims of the transient.
	FlowsWithRTO int
}

// runState is the storage a Run works in and drops when it returns: the
// event queue, the flow table, the path arena and the path lookup buffers.
// Run takes it from runPool and puts it back, so the storage one run grew
// starts the next run at that size, and Run clears every field it reads.
// What a caller may read after Run — links, packet chunks, counters —
// stays with the Simulator.
type runState struct {
	events eventQueue
	flows  []flowState
	// paths is the arena that every expanded path (pathRef) indexes.
	paths []int32
	// fwdBuf and revBuf receive each lookup's switch path from
	// Scheme.AppendPath before expandPath copies it into the arena; they
	// are reused, so they grow only to the longest path routed.
	fwdBuf, revBuf []int
}

// runPool hands Run its runState, following flowsim's instancePool: a
// runState holds no result, so which run used it last never shows in one.
var runPool = sync.Pool{New: func() any { return new(runState) }}

// reset readies st for a run of flows: each flow's state starts zeroed
// with its spec and an unfinished FCT, keeping only the storage of its
// out-of-order map, and the event queue and path arena start empty.
func (st *runState) reset(flows []workload.Flow) {
	n := len(flows)
	if cap(st.flows) < n {
		st.flows = make([]flowState, n)
	}
	st.flows = st.flows[:n]
	for i, f := range flows {
		ooo := st.flows[i].ooo
		clear(ooo)
		st.flows[i] = flowState{spec: f, fct: -1, ooo: ooo}
	}
	st.events.reset(n)
	if cap(st.paths) < pathArenaPerFlow*n {
		st.paths = make([]int32, 0, pathArenaPerFlow*n)
	}
	st.paths = st.paths[:0]
}

type flowState struct {
	spec workload.Flow
	// data and ack are the flow's current paths; n == 0 until routed.
	data, ack pathRef

	// Sender.
	sndUna, sndNxt int64
	cwnd, ssthresh float64 // segments
	dupacks        int
	inRecovery     bool
	recover        int64
	srtt, rttvar   float64 // ns
	rto            int64   // ns
	rtoEpoch       uint32  // see event: equality-only, so 32 bits suffice

	// DCTCP state (ECN configs only).
	alpha       float64
	ceAcked     int64 // bytes acked in the current observation window
	ceMarked    int64 // of which were CE-marked
	ceWindowEnd int64 // window boundary (sequence number)

	// Flowlet state (FlowletTimeout configs only).
	lastSendNS int64
	flowletID  uint64

	// Receiver.
	rcvNxt int64
	ooo    map[int64]int32 // seq → payload bytes

	started bool
	done    bool
	rtoHit  bool
	fct     int64
}

// New builds a simulator for fabric g routed by scheme. Switch links are
// numbered from g's adjacency here, so g must not change while the simulator
// is in use.
func New(g *topology.Graph, scheme routing.Scheme, cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulator{g: g, cfg: cfg,
		ackWire: int32(cfg.AckBytes), mssWire: int32(cfg.MSS + cfg.HeaderBytes),
		blackholeFirst: -1, blackholeLast: -1, freePkt: noPacket}
	s.activeScheme = scheme
	if tv, ok := scheme.(routing.TimeScheme); ok {
		s.tv = tv
		s.activeScheme = tv.SchemeAt(0)
	}
	// Switch ports first, then each host's uplink and downlink.
	s.portOff = g.PortOffsets()
	ports := int(s.portOff[g.N()])
	n := g.Servers()
	s.links = make([]link, ports+2*n)
	for id := range s.links {
		l := &s.links[id]
		s.setRate(l, s.nominalBytesPerNS(int32(id)))
		l.delayNS = cfg.LinkDelayNS
		if id >= ports {
			l.delayNS = cfg.hostDelay()
		}
		l.qHead, l.qTail = noPacket, noPacket
	}
	s.hostUp = make([]int32, n)
	s.hostDown = make([]int32, n)
	for h := range n {
		s.hostUp[h] = int32(ports + 2*h)
		s.hostDown[h] = int32(ports + 2*h + 1)
	}
	return s, nil
}

// nominalBytesPerNS is link id's fault-free rate: LinkRateBps on a switch
// port, the host rate on a host link.
func (s *Simulator) nominalBytesPerNS(id int32) float64 {
	if id < s.portOff[s.g.N()] {
		return s.cfg.LinkRateBps / 8 / 1e9
	}
	return s.cfg.hostRate() / 8 / 1e9
}

// Run simulates the given flows to completion (or MaxSimTime) and returns
// per-flow completion times. Run may be called once per Simulator.
func (s *Simulator) Run(flows []workload.Flow) (Results, error) {
	if s.ran {
		return Results{}, fmt.Errorf("netsim: Run called twice")
	}
	if len(flows) == 0 {
		return Results{}, fmt.Errorf("netsim: no flows")
	}
	for i, f := range flows {
		if f.SizeBytes <= 0 {
			return Results{}, fmt.Errorf("netsim: flow %d has size %d", i, f.SizeBytes)
		}
		if f.Src == f.Dst {
			return Results{}, fmt.Errorf("netsim: flow %d is host-local", i)
		}
		if f.Src < 0 || f.Src >= s.g.Servers() || f.Dst < 0 || f.Dst >= s.g.Servers() {
			return Results{}, fmt.Errorf("netsim: flow %d endpoints out of range", i)
		}
	}
	s.ran = true
	st := runPool.Get().(*runState)
	st.reset(flows)
	s.runState = *st
	for i, f := range flows {
		s.push(f.StartNS, evStart, int32(i), 0)
	}
	if len(s.faultEvents) > 0 {
		s.push(s.faultEvents[0].TimeNS, evFault, 0, 0)
	}
	if s.tv != nil {
		for _, b := range s.tv.Boundaries() {
			s.push(b, evReroute, 0, 0)
		}
	}
	maxT := int64(s.cfg.MaxSimTime)
	for s.events.size > 0 && s.done < len(s.flows) {
		ev := s.events.pop()
		if ev.t > maxT {
			break
		}
		if s.tracer != nil && ev.t < s.now {
			s.violate("event time moved backwards: %d after %d (kind %d)", ev.t, s.now, ev.kind())
		}
		s.now = ev.t
		s.stats.Events++
		switch ev.kind() {
		case evStart:
			s.startFlow(ev.idx)
		case evTxDone:
			s.txDone(ev.idx, int32(ev.arg))
		case evDeliver:
			s.deliver(int32(ev.arg))
		case evRTO:
			s.timeout(ev.idx, ev.arg)
		case evFault:
			s.applyDueFaults()
		case evReroute:
			s.reroute()
		}
	}
	// Drops are counted at the drop site (enterLink), so s.stats is already
	// complete — no per-link summation pass that could disagree with
	// Simulator.stats or LinkDrops().
	res := Results{FCTNS: make([]int64, len(flows)), Stats: s.stats,
		BlackholeFirstNS: s.blackholeFirst, BlackholeLastNS: s.blackholeLast}
	for i := range s.flows {
		res.FCTNS[i] = s.flows[i].fct
		if s.flows[i].done {
			res.Completed++
		}
		if s.flows[i].rtoHit {
			res.FlowsWithRTO++
		}
	}
	*st = s.runState
	s.runState = runState{}
	runPool.Put(st)
	return res, nil
}

func (s *Simulator) startFlow(idx int32) {
	f := &s.flows[idx]
	if f.started {
		return
	}
	f.started = true
	spec := f.spec
	srcRack, dstRack := s.g.RackOf(spec.Src), s.g.RackOf(spec.Dst)
	s.fwdBuf = s.activeScheme.AppendPath(s.fwdBuf[:0], srcRack, dstRack, spec.ID)
	s.revBuf = s.activeScheme.AppendPath(s.revBuf[:0], dstRack, srcRack, spec.ID^0x5ca1ab1e)
	if len(s.fwdBuf) == 0 || len(s.revBuf) == 0 {
		// Unreachable racks: leave the flow incomplete forever.
		return
	}
	f.data = s.expandPath(spec.Src, spec.Dst, s.fwdBuf, spec.ID)
	f.ack = s.expandPath(spec.Dst, spec.Src, s.revBuf, spec.ID^0x5ca1ab1e)
	s.initSender(f, idx)
	s.trySend(f, idx)
}

// initSender arms a flow's congestion-control state for its first send —
// at startFlow, or at a reroute boundary for a flow whose racks were
// unreachable when it started.
func (s *Simulator) initSender(f *flowState, idx int32) {
	f.cwnd = s.cfg.InitCwnd
	f.ssthresh = math.MaxFloat64
	if s.cfg.InitSsthresh > 0 {
		f.ssthresh = s.cfg.InitSsthresh
	}
	f.rto = int64(s.cfg.MinRTO)
	if s.tracer != nil {
		s.tracer.OnCwnd(s.now, idx, f.cwnd, f.sndUna, f.sndNxt)
	}
}

// pathArenaPerFlow sizes the path arena at Run: room for each flow's data
// and ACK paths at six links each (five switches). The paper-scale Figure 4
// cells use about eight ids a flow. Flowlet switches, reroutes and longer
// paths grow the arena by append; offsets stay valid when it moves. The
// switch paths themselves never live in the arena: each lookup lands in
// fwdBuf or revBuf and only its link ids are kept.
const pathArenaPerFlow = 12

// expandPath converts a switch path into the directed link sequence
// host-uplink, network links (hashing across parallel copies),
// host-downlink, appended to the path arena. swPath is the active scheme's
// AppendPath result in fwdBuf or revBuf, which the next lookup overwrites,
// so expandPath keeps nothing of it.
func (s *Simulator) expandPath(srcHost, dstHost int, swPath []int, flowID uint64) pathRef {
	ref := pathRef{off: int32(len(s.paths)), n: int32(len(swPath) + 1)}
	s.paths = append(s.paths, s.hostUp[srcHost])
	for h := 0; h+1 < len(swPath); h++ {
		u, v := swPath[h], swPath[h+1]
		// The modulo must stay in uint64: converting the shifted hash to
		// int first yields a negative index whenever the top bit is set
		// (reachable via the flowlet rehash on any trunked pair).
		c := (flowID >> uint(h%32)) % uint64(s.g.LinkMultiplicity(u, v))
		s.paths = append(s.paths, s.portOff[u]+int32(s.g.Port(u, v, int(c))))
	}
	s.paths = append(s.paths, s.hostDown[dstHost])
	return ref
}

// trySend transmits new segments while the congestion window allows.
func (s *Simulator) trySend(f *flowState, idx int32) {
	mss := int64(s.cfg.MSS)
	for f.sndNxt < f.spec.SizeBytes && f.sndNxt-f.sndUna < int64(f.cwnd*float64(mss)) {
		s.sendSegment(f, idx, f.sndNxt)
		f.sndNxt += min(mss, f.spec.SizeBytes-f.sndNxt)
	}
	if f.sndNxt > f.sndUna {
		s.armRTO(f, idx)
	}
}

func (s *Simulator) sendSegment(f *flowState, idx int32, seq int64) {
	if t := int64(s.cfg.FlowletTimeout); t > 0 {
		// Flowlet switching [25]: an idle gap longer than the timeout lets
		// the next burst re-hash onto a (possibly) different path.
		if f.lastSendNS > 0 && s.now-f.lastSendNS > t {
			f.flowletID++
			s.stats.FlowletSwitches++
			spec := f.spec
			srcRack, dstRack := s.g.RackOf(spec.Src), s.g.RackOf(spec.Dst)
			h := spec.ID ^ (f.flowletID * 0x9e3779b97f4a7c15)
			s.fwdBuf = s.activeScheme.AppendPath(s.fwdBuf[:0], srcRack, dstRack, h)
			if len(s.fwdBuf) > 0 {
				f.data = s.expandPath(spec.Src, spec.Dst, s.fwdBuf, h)
			}
		}
		f.lastSendNS = s.now
	}
	payload := min(int64(s.cfg.MSS), f.spec.SizeBytes-seq)
	id, p := s.alloc()
	p.flow = idx
	p.hop = 0
	p.isAck = false
	p.ce = false
	p.seq = seq
	p.payload = int32(payload)
	p.wireSize = int32(payload) + int32(s.cfg.HeaderBytes)
	p.echo = s.now
	p.path = f.data
	s.stats.DataPackets++
	s.enterLink(id)
}

func (s *Simulator) sendAck(f *flowState, idx int32, echo int64, ce bool) {
	id, p := s.alloc()
	p.flow = idx
	p.hop = 0
	p.isAck = true
	p.ce = ce
	p.seq = f.rcvNxt
	p.payload = 0
	p.wireSize = int32(s.cfg.AckBytes)
	p.echo = echo
	p.path = f.ack
	s.stats.AckPackets++
	s.enterLink(id)
}

// enterLink offers packet pid to the next link on its path.
func (s *Simulator) enterLink(pid int32) {
	p := s.pkt(pid)
	id := s.paths[p.path.off+p.hop]
	l := &s.links[id]
	if l.down {
		s.blackhole(id, pid)
		return
	}
	if l.lossProb > 0 && s.faultRNG.Float64() < l.lossProb {
		s.stats.GrayDrops++
		if s.tracer != nil {
			s.tracer.OnDrop(s.now, id, p.flow, p.isAck, DropGray)
		}
		s.free(pid)
		return
	}
	if s.cfg.ECN && !p.isAck && !p.ce && l.queueBytes >= s.cfg.ECNThresholdBytes {
		// DCTCP-style instantaneous-queue marking at enqueue.
		p.ce = true
		s.stats.ECNMarks++
	}
	if !l.busy {
		l.busy = true
		if s.tracer != nil {
			s.tracer.OnEnqueue(s.now, id, p.flow, int(p.hop), p.isAck, p.wireSize, l.queueBytes, l.queued())
			s.tracer.OnTxStart(s.now, id, p.flow, p.isAck, p.wireSize)
		}
		s.push(s.now+s.txTimeNS(l, p.wireSize), evTxDone, id, uint32(pid))
		return
	}
	if !s.enqueue(l, pid) {
		// Drop-tail overflow: counted here, at the drop site, so the
		// aggregate can never disagree with the per-link counters.
		s.stats.Drops++
		if s.tracer != nil {
			s.tracer.OnDrop(s.now, id, p.flow, p.isAck, DropQueue)
		}
		s.free(pid)
		return
	}
	if s.tracer != nil {
		s.tracer.OnEnqueue(s.now, id, p.flow, int(p.hop), p.isAck, p.wireSize, l.queueBytes, l.queued())
	}
}

func (s *Simulator) txDone(linkID, pid int32) {
	l := &s.links[linkID]
	if l.down {
		// The link was cut mid-serialization: the frame and anything still
		// queued are lost.
		s.blackhole(linkID, pid)
		for l.queued() > 0 {
			s.blackhole(linkID, s.dequeue(l))
		}
		l.busy = false
		return
	}
	s.push(s.now+l.delayNS, evDeliver, 0, uint32(pid))
	if l.queued() > 0 {
		nid := s.dequeue(l)
		next := s.pkt(nid)
		if s.tracer != nil {
			s.tracer.OnTxStart(s.now, linkID, next.flow, next.isAck, next.wireSize)
		}
		s.push(s.now+s.txTimeNS(l, next.wireSize), evTxDone, linkID, uint32(nid))
	} else {
		l.busy = false
	}
}

func (s *Simulator) deliver(pid int32) {
	p := s.pkt(pid)
	p.hop++
	if p.hop < p.path.n {
		s.enterLink(pid)
		return
	}
	idx := p.flow
	f := &s.flows[idx]
	if s.tracer != nil {
		s.tracer.OnDeliver(s.now, idx, p.isAck, p.seq)
	}
	if p.isAck {
		ack, echo, ce := p.seq, p.echo, p.ce
		s.free(pid)
		s.handleAck(f, idx, ack, echo, ce)
		return
	}
	// Receiver side.
	seq, payload, echo, ce := p.seq, int64(p.payload), p.echo, p.ce
	s.free(pid)
	if f.done {
		return
	}
	if seq == f.rcvNxt {
		f.rcvNxt += payload
		for {
			pl, ok := f.ooo[f.rcvNxt]
			if !ok {
				break
			}
			delete(f.ooo, f.rcvNxt)
			f.rcvNxt += int64(pl)
		}
	} else if seq > f.rcvNxt {
		if f.ooo == nil {
			// Allocated on first reordering only: in-order flows — the
			// common case — never pay for the map.
			f.ooo = make(map[int64]int32, 8) // lazy: only the first reordered packet of a flow pays
		}
		f.ooo[seq] = int32(payload)
	}
	s.sendAck(f, idx, echo, ce)
}

func (s *Simulator) handleAck(f *flowState, idx int32, ack, echo int64, ce bool) {
	if f.done {
		return
	}
	s.updateRTT(f, s.now-echo)
	mss := float64(s.cfg.MSS)
	switch {
	case ack > f.sndUna:
		ackedBytes := ack - f.sndUna
		f.sndUna = ack
		if f.sndNxt < f.sndUna {
			// A pre-timeout segment was acked after go-back-N rewound sndNxt.
			f.sndNxt = f.sndUna
		}
		f.dupacks = 0
		if s.cfg.ECN {
			s.dctcpUpdate(f, ackedBytes, ce)
		}
		if f.inRecovery {
			if ack >= f.recover {
				f.inRecovery = false
				f.cwnd = f.ssthresh
			} else {
				// NewReno partial ack: the next hole is lost too.
				s.stats.Retransmits++
				s.sendSegment(f, idx, f.sndUna)
			}
		} else {
			ackedSegs := float64(ackedBytes) / mss
			if f.cwnd < f.ssthresh {
				f.cwnd += ackedSegs // slow start
			} else {
				f.cwnd += ackedSegs / f.cwnd // congestion avoidance
			}
		}
		if f.sndUna >= f.spec.SizeBytes {
			f.done = true
			f.fct = s.now - f.spec.StartNS
			f.rtoEpoch++ // cancel timer
			s.done++
			if s.tracer != nil {
				s.tracer.OnCwnd(s.now, idx, f.cwnd, f.sndUna, f.sndNxt)
			}
			return
		}
		s.armRTO(f, idx)
		s.trySend(f, idx)
	case ack == f.sndUna && f.sndNxt > f.sndUna:
		f.dupacks++
		if f.inRecovery {
			f.cwnd++ // inflate per extra dupack
			s.trySend(f, idx)
		} else if f.dupacks == 3 {
			flightSegs := float64(f.sndNxt-f.sndUna) / mss
			f.ssthresh = math.Max(flightSegs/2, 2)
			f.recover = f.sndNxt
			f.inRecovery = true
			f.cwnd = f.ssthresh + 3
			s.stats.Retransmits++
			s.sendSegment(f, idx, f.sndUna)
			s.armRTO(f, idx)
		}
	}
	if s.tracer != nil {
		s.tracer.OnCwnd(s.now, idx, f.cwnd, f.sndUna, f.sndNxt)
	}
}

func (s *Simulator) timeout(idx int32, epoch uint32) {
	f := &s.flows[idx]
	if f.done || epoch != f.rtoEpoch || f.sndNxt == f.sndUna {
		return
	}
	s.stats.Timeouts++
	f.rtoHit = true
	flightSegs := float64(f.sndNxt-f.sndUna) / float64(s.cfg.MSS)
	f.ssthresh = math.Max(flightSegs/2, 2)
	f.cwnd = 1
	f.inRecovery = false
	f.dupacks = 0
	f.sndNxt = f.sndUna // go-back-N from the hole
	f.rto = min(2*f.rto, int64(s.cfg.MaxRTO))
	s.stats.Retransmits++
	if s.tracer != nil {
		s.tracer.OnCwnd(s.now, idx, f.cwnd, f.sndUna, f.sndNxt)
	}
	s.trySend(f, idx)
}

// dctcpUpdate runs the DCTCP control law once per observation window: α is
// the EWMA of the marked byte fraction, and any marking in a window scales
// cwnd by (1 − α/2).
func (s *Simulator) dctcpUpdate(f *flowState, ackedBytes int64, ce bool) {
	f.ceAcked += ackedBytes
	if ce {
		f.ceMarked += ackedBytes
	}
	if f.sndUna < f.ceWindowEnd {
		return
	}
	if f.ceAcked > 0 {
		frac := float64(f.ceMarked) / float64(f.ceAcked)
		g := s.cfg.DCTCPGain
		f.alpha = (1-g)*f.alpha + g*frac
		if f.ceMarked > 0 && !f.inRecovery {
			f.cwnd *= 1 - f.alpha/2
			if f.cwnd < 1 {
				f.cwnd = 1
			}
		}
	}
	f.ceAcked, f.ceMarked = 0, 0
	f.ceWindowEnd = f.sndNxt
}

func (s *Simulator) updateRTT(f *flowState, sample int64) {
	if sample <= 0 {
		sample = 1
	}
	sa := float64(sample)
	if f.srtt <= 0 {
		f.srtt = sa
		f.rttvar = sa / 2
	} else {
		d := f.srtt - sa
		if d < 0 {
			d = -d
		}
		f.rttvar = 0.75*f.rttvar + 0.25*d
		f.srtt = 0.875*f.srtt + 0.125*sa
	}
	rto := int64(f.srtt + 4*f.rttvar)
	f.rto = max(int64(s.cfg.MinRTO), min(rto, int64(s.cfg.MaxRTO)))
}

// armRTO (re)schedules the retransmission timer: the epoch bump invalidates
// any previously scheduled firing.
func (s *Simulator) armRTO(f *flowState, idx int32) {
	f.rtoEpoch++
	s.push(s.now+f.rto, evRTO, idx, f.rtoEpoch)
}

// alloc hands out a packet and its id: the most recently freed one, or
// else the next slot of the newest chunk.
func (s *Simulator) alloc() (int32, *packet) {
	s.allocCount++
	if id := s.freePkt; id != noPacket {
		p := s.pkt(id)
		s.freePkt = p.qnext
		p.qnext = noPacket
		p.pooled = false
		return id, p
	}
	// Free list empty: carve the next packet, adding a chunk when the
	// newest is full, so growth costs one allocation per pktChunkSize
	// packets instead of one each.
	id := s.pktCount
	if int(id>>pktChunkShift) == len(s.pkts) {
		s.pkts = append(s.pkts, make([]packet, pktChunkSize)) // pool refill: one allocation per 256 packets, amortized away
	}
	s.pktCount++
	p := s.pkt(id)
	p.qnext = noPacket
	return id, p
}

func (s *Simulator) free(id int32) {
	p := s.pkt(id)
	if p.pooled {
		// Double free: the packet is already in the pool. Handing it out
		// twice would silently corrupt two flows' state; record the breach
		// (audited runs fail on it) and drop the duplicate free.
		if s.tracer != nil {
			s.violate("packet double-freed (flow %d, seq %d, ack=%v)", p.flow, p.seq, p.isAck)
		}
		return
	}
	p.pooled = true
	s.freeCount++
	p.qnext = s.freePkt
	s.freePkt = id
}

// LinkDrops returns the total packets dropped at queues (diagnostics).
func (s *Simulator) LinkDrops() uint64 {
	var d uint64
	for i := range s.links {
		d += s.links[i].drops
	}
	return d
}

// NumLinks returns the number of unidirectional links in the built fabric
// (host uplinks and downlinks plus every parallel copy of each switch
// link). The link ids passed to Tracer hooks index this range.
func (s *Simulator) NumLinks() int { return len(s.links) }

// LinkRateBps returns the nominal (fault-free) capacity of link id in bits
// per second — the denominator for turning observed tx bytes into
// utilization. Gray-failure rate derating does not change the nominal rate.
func (s *Simulator) LinkRateBps(id int32) float64 {
	return s.nominalBytesPerNS(id) * 8e9
}
