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

// link is one directed egress port: a drop-tail FIFO feeding a transmitter.
// Fault injection can mark a link down (packets blackhole), degrade its rate
// (bytesPerNS drops below nominalBytesPerNS) or make it gray (random loss).
// The FIFO is an intrusive list of packet ids threaded through
// packet.qnext, so queueing never allocates and a link holds no pointers.
type link struct {
	bytesPerNS        float64
	nominalBytesPerNS float64
	delayNS           int64
	capBytes          int64
	lossProb          float64

	queueBytes int64
	qCount     int
	qHead      int32 // next to transmit; noPacket when empty
	qTail      int32
	busy       bool
	down       bool

	drops uint64
}

func (l *link) txTimeNS(wire int32) int64 {
	return int64(float64(wire)/l.bytesPerNS + 0.5)
}

func (l *link) queued() int { return l.qCount }

// pkt returns packet id. Chunks never move, so the pointer stays valid
// while later allocations append chunks.
func (s *Simulator) pkt(id int32) *packet {
	return &s.pkts[id>>pktChunkShift][id&(pktChunkSize-1)]
}

// enqueue appends packet id to l's FIFO, returning false (drop) on
// overflow.
func (s *Simulator) enqueue(l *link, id int32) bool {
	p := s.pkt(id)
	if l.queueBytes+int64(p.wireSize) > l.capBytes {
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
