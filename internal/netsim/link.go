package netsim

// packet is one frame in flight, named by its id in the simulator's pool
// (see Simulator.pkt). It holds no pointers: its route is a pathRef into
// the simulator's path arena and its FIFO successor is an id, so packet
// chunks are memory the garbage collector never scans. Packets are pooled;
// never retain one after handing it back to the simulator.
type packet struct {
	seq      int64 // data: first payload byte; ack: cumulative ack
	echo     int64 // data: send timestamp; ack: echoed timestamp
	flow     int32
	hop      int32
	wireSize int32 // bytes on the wire
	payload  int32 // data bytes carried (0 for ACKs)
	path     pathRef
	// qnext is the next packet's id in a link FIFO while queued, the next
	// free packet's id while pooled, and noPacket otherwise.
	qnext  int32
	isAck  bool
	ce     bool // data: congestion-experienced mark; ack: echoed mark
	pooled bool // in the free pool — set by free, cleared by alloc
}

// pathRef is one expanded path: the n link ids at arena offset off of the
// simulator's paths. A flow's paths change at flowlet switches and
// reroutes, but a run never rewrites the arena, so a packet keeps the
// route it was sent on.
type pathRef struct {
	off, n int32
}

// noPacket is the id that names no packet: an empty FIFO's head and tail,
// the last packet's qnext, an empty free list.
const noPacket int32 = -1

// Packets are carved from fixed chunks of 1<<pktChunkShift (256 ≈ 12 KiB)
// and addressed by id = chunk<<pktChunkShift | slot.
const (
	pktChunkShift = 8
	pktChunkSize  = 1 << pktChunkShift
)

// link is one directed egress port: a drop-tail FIFO of cfg.QueueBytes
// feeding a transmitter. Fault injection can mark a link down (packets
// blackhole), degrade its rate (bytesPerNS drops below the nominal rate
// Simulator.nominalBytesPerNS gives) or make it gray (random loss). The
// FIFO is an intrusive list of packet ids threaded through packet.qnext,
// so queueing never allocates and a link holds no pointers.
type link struct {
	bytesPerNS float64
	// ackTxNS and mssTxNS cache serializeNS at bytesPerNS for the two frame
	// sizes nearly every transmission has, Simulator.ackWire and
	// Simulator.mssWire; setRate keeps them in step with the rate.
	ackTxNS, mssTxNS int64
	delayNS          int64
	lossProb         float64

	queueBytes int64
	drops      uint64
	qCount     int32 // packet ids are int32, so a FIFO holds fewer than 2^31
	qHead      int32 // next to transmit; noPacket when empty
	qTail      int32
	busy       bool
	down       bool
}

// serializeNS is the time a wire-byte frame takes at bytesPerNS, rounded
// to the nearest nanosecond.
func serializeNS(wire int32, bytesPerNS float64) int64 {
	return int64(float64(wire)/bytesPerNS + 0.5)
}

// setRate sets l's rate and refreshes its cached frame times. Every rate
// change goes through it: New, and fault injection's GraySet and
// GrayClear.
func (s *Simulator) setRate(l *link, bytesPerNS float64) {
	l.bytesPerNS = bytesPerNS
	l.ackTxNS = serializeNS(s.ackWire, bytesPerNS)
	l.mssTxNS = serializeNS(s.mssWire, bytesPerNS)
}

// txTimeNS is the time l takes to serialize a wire-byte frame: a cached
// time for an ACK or a full segment, a division for any other size.
func (s *Simulator) txTimeNS(l *link, wire int32) int64 {
	switch wire {
	case s.mssWire:
		return l.mssTxNS
	case s.ackWire:
		return l.ackTxNS
	}
	return serializeNS(wire, l.bytesPerNS)
}

func (l *link) queued() int { return int(l.qCount) }

// pkt returns packet id. Chunks never move, so the pointer stays valid
// while later allocations append chunks.
func (s *Simulator) pkt(id int32) *packet {
	return &s.pkts[id>>pktChunkShift][id&(pktChunkSize-1)]
}

// enqueue appends packet id to l's FIFO, returning false (drop) on
// overflow.
func (s *Simulator) enqueue(l *link, id int32) bool {
	p := s.pkt(id)
	if l.queueBytes+int64(p.wireSize) > s.cfg.QueueBytes {
		l.drops++
		return false
	}
	l.queueBytes += int64(p.wireSize)
	p.qnext = noPacket
	if l.qTail == noPacket {
		l.qHead = id
	} else {
		s.pkt(l.qTail).qnext = id
	}
	l.qTail = id
	l.qCount++
	return true
}

// dequeue removes and returns the id at the head of l's FIFO.
func (s *Simulator) dequeue(l *link) int32 {
	id := l.qHead
	p := s.pkt(id)
	l.qHead = p.qnext
	if l.qHead == noPacket {
		l.qTail = noPacket
	}
	p.qnext = noPacket
	l.qCount--
	l.queueBytes -= int64(p.wireSize)
	return id
}
