package netsim

// Event kinds.
const (
	evStart   uint8 = iota // a flow begins (idx = flow)
	evTxDone               // a link finished serializing pkt (idx = link)
	evDeliver              // pkt arrives after propagation
	evRTO                  // a flow's retransmission timer fires (idx = flow)
	evFault                // the next batch of scheduled fault events applies
	evReroute              // a time-varying routing phase boundary is reached
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

// eventHeap is a binary min-heap ordered by (t, seq). A hand-rolled heap
// avoids container/heap's interface boxing on the simulator's hottest path.
type eventHeap []event

//lint:hotpath
func heapPush(h *eventHeap, ev event) {
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

//lint:hotpath
func heapPop(h *eventHeap) event {
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

//lint:hotpath
func (s *Simulator) push(ev event) {
	ev.seq = s.nextSeq()
	heapPush(&s.events, ev)
}

//lint:hotpath
func (s *Simulator) pop() event {
	return heapPop(&s.events)
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
