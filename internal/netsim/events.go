package netsim

import "math"

// The event queue serves events in (t, seq) order, seq being a push
// counter, so equal-time events run in the order they were scheduled and
// every run is deterministic. Almost every push arrives in time order
// within its kind: flows start in StartNS order, links share one
// propagation delay, and nearly every RTO timer is set MinRTO ahead.
// Transmission completions mix ACK- and data-sized frames, so about half
// of them arrive out of order. The four busy kinds (start, tx-done,
// deliver, RTO) therefore each get a FIFO lane: a push whose time is not
// below its lane's newest joins the lane, and because seq grows with every
// push a lane is already sorted by (t, seq). The rest, and the handful of
// fault and reroute events a run has, go to a small binary heap. Each lane
// caches its head's (t, key) beside its ring, so pop compares four cached
// heads and the heap top — the total order one heap over every event
// gives — and takes a lane event at O(1) instead of O(log n).
//
// An event is 24 bytes with no pointer in it: seq and kind share one word
// (key = seq<<3 | kind, so comparing keys compares seqs), and a packet is
// named by its id in the simulator's chunked pool, not by its address.
// The queue's rings and heap are therefore never scanned by the garbage
// collector, and writing an event into them needs no write barrier. RTO
// events carry a 32-bit timer epoch in the same word a packet id uses.

// Event kinds. A kind fits in the low three bits of event.key.
const (
	evStart   uint8 = iota // a flow begins (idx = flow)
	evTxDone               // a link finished serializing a packet (idx = link, arg = packet id)
	evDeliver              // a packet arrives after propagation (arg = packet id)
	evRTO                  // a flow's retransmission timer fires (idx = flow, arg = epoch)
	evFault                // the next batch of scheduled fault events applies
	evReroute              // a time-varying routing phase boundary is reached
)

// numLanes is how many kinds, from evStart up, get a lane; evFault and
// evReroute always go to the heap.
const numLanes = 4

// kindBits is the width of the kind field at the bottom of event.key.
const kindBits = 3

// event is one scheduled occurrence. key packs the push counter above the
// kind, seq<<kindBits | kind: seq is unique, so ordering by (t, key) is
// ordering by (t, seq), and seq breaks time ties so the event order (and
// hence the whole simulation) is deterministic.
//
// arg is a packet id for transmissions and deliveries and the flow's timer
// epoch for RTO events. Epochs are 32 bits wide and only compared for
// equality: a stale timer could fire as live only if its flow re-armed its
// timer 2^32 times while that one timer was pending.
type event struct {
	t   int64
	key uint64
	idx int32
	arg uint32
}

// kind returns the event kind packed into key's low bits.
func (e event) kind() uint8 { return uint8(e.key & (1<<kindBits - 1)) }

// lane is a ring-buffer FIFO of events of one kind, sorted by (t, seq).
// t and key are its head event's, or idleT and idleKey while it is empty:
// an idle lane then compares above every event, so pop needs no emptiness
// test and never reads a ring to choose.
type lane struct {
	t    int64
	key  uint64
	buf  []event
	head int   // index of the oldest event
	n    int   // events queued
	last int64 // time of the newest event
}

// idleT and idleKey are an empty lane's head. No event sorts after them:
// a key's kind bits are at most evReroute, never all ones.
const (
	idleT   = math.MaxInt64
	idleKey = math.MaxUint64
)

// eventQueue is the per-kind lanes plus the residual heap for pushes that
// arrived out of time order within their kind and for every fault and
// reroute event.
type eventQueue struct {
	lanes [numLanes]lane
	heap  []event
	size  int
}

// reset empties the queue for a run of nflows flows. A lane or heap whose
// storage is already at least its share keeps it, wrapped or grown as a
// previous run left it; the rest are carved from one new backing
// allocation. The shares add up to at most 4·nflows+56 events: a start lane
// holding every flow, two RTO timers per flow, and a quarter slot per flow
// for each of transmissions, deliveries and the heap. At 24 bytes an
// event, that is at most 96·nflows+1344 bytes of pointer-free memory. A
// lane that outgrows its share is reallocated on its own: under load an
// RTO lane holds two timers for every ACK of the last MinRTO, far more
// than any share the flow count can predict.
func (q *eventQueue) reset(nflows int) {
	share := [numLanes]int{
		evStart:   nflows,
		evTxDone:  nflows/4 + 8,
		evDeliver: nflows/4 + 8,
		evRTO:     2*nflows + 32,
	}
	heapCap := nflows/4 + 8
	short := 0
	if cap(q.heap) < heapCap {
		short += heapCap
	}
	for k, c := range share {
		if len(q.lanes[k].buf) < c {
			short += c
		}
	}
	var backing []event
	if short > 0 {
		backing = make([]event, short)
	}
	carve := func(n int) []event {
		b := backing[:n:n]
		backing = backing[n:]
		return b
	}
	if cap(q.heap) < heapCap {
		q.heap = carve(heapCap)
	}
	q.heap = q.heap[:0]
	for k := range q.lanes {
		l := &q.lanes[k]
		if len(l.buf) < share[k] {
			l.buf = carve(share[k])
		}
		*l = lane{t: idleT, key: idleKey, buf: l.buf}
	}
	q.size = 0
}

func (q *eventQueue) push(ev event) {
	q.size++
	k := ev.kind()
	if k >= numLanes {
		heapPush(&q.heap, ev)
		return
	}
	l := &q.lanes[k]
	if l.n == 0 {
		l.t, l.key = ev.t, ev.key
	} else if ev.t < l.last {
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
	best := -1 // the heap
	bt, bk := int64(idleT), uint64(idleKey)
	if len(q.heap) > 0 {
		bt, bk = q.heap[0].t, q.heap[0].key
	}
	for k := range q.lanes {
		l := &q.lanes[k]
		if l.t < bt || (l.t == bt && l.key < bk) {
			best, bt, bk = k, l.t, l.key
		}
	}
	if best < 0 {
		return heapPop(&q.heap)
	}
	l := &q.lanes[best]
	ev := l.buf[l.head]
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	if l.n > 0 {
		h := &l.buf[l.head]
		l.t, l.key = h.t, h.key
	} else {
		l.t, l.key = idleT, idleKey
	}
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

// heapPush and heapPop keep h a binary min-heap ordered by (t, key). A
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

// push schedules an event of kind at time t, stamping it with the next seq.
func (s *Simulator) push(t int64, kind uint8, idx int32, arg uint32) {
	s.events.push(event{t: t, key: s.nextSeq()<<kindBits | uint64(kind), idx: idx, arg: arg})
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

func (s *Simulator) nextSeq() uint64 {
	s.seqCounter++
	return s.seqCounter
}
