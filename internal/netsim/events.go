package netsim

// The event queue serves events in (t, seq) order, seq being a push
// counter, so equal-time events run in the order they were scheduled and
// every run is deterministic. Almost every push arrives in time order
// within its kind: flows start in StartNS order, links share one
// propagation delay, and nearly every RTO timer is set MinRTO ahead.
// Transmission completions mix ACK- and data-sized frames, so about half
// of them arrive out of order. Each kind therefore gets a FIFO lane: a
// push whose time is not below its lane's newest joins the lane, and
// because seq grows with every push a lane is already sorted by (t, seq).
// The rest go to a small binary heap. pop takes the least (t, seq) among
// the heap top and the lane heads — the total order one heap over every
// event gives — at O(1) for a lane event instead of O(log n).

// Event kinds.
const (
	evStart   uint8 = iota // a flow begins (idx = flow)
	evTxDone               // a link finished serializing pkt (idx = link)
	evDeliver              // pkt arrives after propagation
	evRTO                  // a flow's retransmission timer fires (idx = flow)
	evFault                // the next batch of scheduled fault events applies
	evReroute              // a time-varying routing phase boundary is reached
	numKinds
)

// event is one scheduled occurrence. seq breaks time ties so the event
// order (and hence the whole simulation) is deterministic.
type event struct {
	t     int64
	seq   uint64
	kind  uint8
	idx   int32
	epoch uint64
	pkt   *packet
}

// lane is a ring-buffer FIFO of events of one kind, sorted by (t, seq).
type lane struct {
	buf  []event
	head int   // index of the oldest event
	n    int   // events queued
	last int64 // time of the newest event
}

// eventQueue is the per-kind lanes plus the residual heap for pushes that
// arrived out of time order within their kind.
type eventQueue struct {
	lanes [numKinds]lane
	heap  []event
	size  int
}

// reset sizes the queue for a run of nflows flows in one backing
// allocation no larger than the 4·nflows+64 events one heap was given: a
// start lane holding every flow, two RTO timers per flow, and a quarter
// slot per flow for each of transmissions, deliveries and the residual
// heap. A lane that outgrows its share is reallocated on its own: under
// load an RTO lane holds two timers for every ACK of the last MinRTO, far
// more than any share the flow count can predict.
func (q *eventQueue) reset(nflows int) {
	share := [numKinds]int{
		evStart:   nflows,
		evTxDone:  nflows/4 + 8,
		evDeliver: nflows/4 + 8,
		evRTO:     2*nflows + 32,
		evFault:   1,
		evReroute: 2,
	}
	heapCap := nflows/4 + 8
	total := heapCap
	for _, c := range share {
		total += c
	}
	backing := make([]event, total)
	q.heap = backing[:0:heapCap]
	off := heapCap
	for k := range q.lanes {
		q.lanes[k] = lane{buf: backing[off : off+share[k] : off+share[k]]}
		off += share[k]
	}
	q.size = 0
}

func (q *eventQueue) push(ev event) {
	q.size++
	l := &q.lanes[ev.kind]
	if l.n > 0 && ev.t < l.last {
		heapPush(&q.heap, ev)
		return
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	i := l.head + l.n
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	l.buf[i] = ev
	l.n++
	l.last = ev.t
}

// pop removes and returns the least (t, seq) event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	q.size--
	best, found := -1, len(q.heap) > 0 // best -1 is the heap
	var bt int64
	var bs uint64
	if found {
		bt, bs = q.heap[0].t, q.heap[0].seq
	}
	for k := range q.lanes {
		l := &q.lanes[k]
		if l.n == 0 {
			continue
		}
		e := &l.buf[l.head]
		if !found || e.t < bt || (e.t == bt && e.seq < bs) {
			best, found, bt, bs = k, true, e.t, e.seq
		}
	}
	if best < 0 {
		return heapPop(&q.heap)
	}
	l := &q.lanes[best]
	ev := l.buf[l.head]
	l.buf[l.head].pkt = nil // release pkt pointer
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	return ev
}

// grow doubles a full lane, unrolling the ring so the oldest event lands
// at index 0.
func (l *lane) grow() {
	buf := make([]event, max(2*len(l.buf), 16)) // lane growth: doubles a lane only when it overflows its share
	copied := copy(buf, l.buf[l.head:])
	copy(buf[copied:], l.buf[:l.head])
	l.buf = buf
	l.head = 0
}

// heapPush and heapPop keep h a binary min-heap ordered by (t, seq). A
// hand-rolled heap avoids container/heap's interface boxing.
func heapPush(h *[]event, ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func heapPop(h *[]event) event {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	(*h)[last] = event{} // release pkt pointer
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && less((*h)[l], (*h)[smallest]) {
			smallest = l
		}
		if r < last && less((*h)[r], (*h)[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

func (s *Simulator) push(ev event) {
	ev.seq = s.nextSeq()
	s.events.push(ev)
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (s *Simulator) nextSeq() uint64 {
	s.seqCounter++
	return s.seqCounter
}
