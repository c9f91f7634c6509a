package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// numKinds is how many event kinds the oracle's scripts push.
const numKinds = evReroute + 1

// eventHeapReference is the event queue the per-kind lanes replaced — one
// binary min-heap over every pending event, ordered by (t, seq) — kept as
// the lanes' oracle.
type eventHeapReference []event

func (h *eventHeapReference) push(ev event) {
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

func (h *eventHeapReference) pop() event {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	(*h)[last] = event{}
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

// checkLanesMatchHeap replays one operation script against the lanes and
// the reference heap and fails on the first pop where the two disagree in
// any field, or where the popped event's kind is not the kind it was
// pushed with (the kind shares event.key with seq). The script runs three
// times on one queue, as Runs reuse pooled storage: on fresh storage; on
// the storage that pass left behind (lanes wrapped and grown, heap
// capacity), stopping short of the final drain so events stay queued as a
// Run's stale timers do; and reset over those. The first byte sizes the lanes (as a run of 0–3 flows, so
// they outgrow their shares and wrap); each following byte is one op:
//
//	op%8 == 0, 1: pop one event
//	op%8 == 2:    drain both queues to empty
//	otherwise:    push an event of kind (op>>3&15)%numKinds whose time is
//	              the next byte — an offset from the last popped time, as
//	              the simulator schedules, or, with op's top bit set, an
//	              absolute time that may lie behind it
//
// Offsets are small, so equal times are common and only seq orders them.
// A fault or reroute push must land in the heap.
func checkLanesMatchHeap(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	var q eventQueue
	for pass := 1; pass <= 3; pass++ {
		q.reset(int(script[0] % 4))
		replayLanes(t, &q, script, pass, pass != 2)
	}
}

// replayLanes is one pass of checkLanesMatchHeap on q, just reset; drain
// pops whatever the script left queued at its end.
func replayLanes(t *testing.T, q *eventQueue, script []byte, pass int, drain bool) {
	t.Helper()
	var ref eventHeapReference
	pushedKind := []uint8{0} // by seq; seq 0 is never pushed
	var seq uint64
	var now int64
	pops := 0
	popBoth := func() {
		got, want := q.pop(), ref.pop()
		pops++
		if got != want {
			t.Fatalf("pass %d, pop %d: lanes gave %+v, reference heap %+v", pass, pops, got, want)
		}
		if k, s := got.kind(), got.key>>kindBits; s == 0 || s > seq || k != pushedKind[s] {
			t.Fatalf("pass %d, pop %d: event %+v unpacks to seq %d, kind %d; pushed %d seqs", pass, pops, got, s, k, seq)
		}
		if q.size != len(ref) {
			t.Fatalf("pass %d, pop %d: lanes hold %d events, reference heap %d", pass, pops, q.size, len(ref))
		}
		now = got.t
	}
	for i := 1; i < len(script); i++ {
		op := script[i]
		switch op % 8 {
		case 0, 1:
			if len(ref) > 0 {
				popBoth()
			}
		case 2:
			for len(ref) > 0 {
				popBoth()
			}
			if q.size != 0 {
				t.Fatalf("pass %d: drained reference heap but lanes hold %d events", pass, q.size)
			}
		default:
			var arg byte
			if i+1 < len(script) {
				i++
				arg = script[i]
			}
			tm := now + int64(arg%16)
			if op&0x80 != 0 {
				tm = int64(arg)
			}
			seq++
			kind := (op >> 3 & 0xf) % numKinds
			pushedKind = append(pushedKind, kind)
			ev := event{t: tm, key: seq<<kindBits | uint64(kind), idx: int32(i), arg: uint32(arg)}
			inHeap := len(q.heap)
			q.push(ev)
			ref.push(ev)
			if kind >= numLanes && len(q.heap) != inHeap+1 {
				t.Fatalf("pass %d: kind %d push %+v did not go to the heap", pass, kind, ev)
			}
		}
	}
	if !drain {
		return
	}
	for len(ref) > 0 {
		popBoth()
	}
	if q.size != 0 {
		t.Fatalf("pass %d: reference heap empty but lanes hold %d events", pass, q.size)
	}
}

// TestEventLanesMatchHeap drives the lanes and the reference heap with
// seeded random scripts: every kind, equal times, pushes behind a lane's
// tail that must fall back to the heap, drains to empty, and pushes after
// pops. A second family of scripts is push-heavy, so lanes grow while
// their rings are wrapped.
func TestEventLanesMatchHeap(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 1+rng.Intn(3000))
		rng.Read(script)
		if seed%2 == 0 {
			// Push-heavy: turn most pops and drains into pushes.
			for i := 1; i < len(script); i++ {
				if script[i]%8 < 3 && rng.Intn(4) != 0 {
					script[i] |= 3
				}
			}
		}
		checkLanesMatchHeap(t, script)
	}
}

// FuzzEventLanes is TestEventLanesMatchHeap's property on fuzzer-chosen
// scripts; testdata/fuzz/FuzzEventLanes holds its seed corpus, which plain
// go test replays.
func FuzzEventLanes(f *testing.F) {
	f.Fuzz(checkLanesMatchHeap)
}

// TestHotTypesHoldNoPointers keeps the event queue's rings, the packet
// chunks and the link table pointer-free, so the garbage collector never
// scans them and storing an event needs no write barrier. A field that
// holds a pointer, directly or through a slice, map, string, interface,
// chan or func, would quietly give that back; so would an event wider than
// its 24 bytes. It also keeps a link at most 72 bytes.
func TestHotTypesHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(event{}), reflect.TypeOf(packet{}),
		reflect.TypeOf(link{}), reflect.TypeOf(pathRef{}),
	} {
		for _, f := range pointerFields(typ, typ.Name()) {
			t.Errorf("%s holds a pointer", f)
		}
	}
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Errorf("event is %d bytes, want 24", size)
	}
	// The link table is most of what New allocates: the two cached frame
	// times were paid for by dropping two fields, and a link must not grow
	// back past its 72 bytes.
	if size := unsafe.Sizeof(link{}); size > 72 {
		t.Errorf("link is %d bytes, want at most 72", size)
	}
}

// pointerFields names every field of typ, reached from name, whose memory
// the garbage collector would have to scan.
func pointerFields(typ reflect.Type, name string) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return []string{name + " (" + typ.Kind().String() + ")"}
	case reflect.Array:
		return pointerFields(typ.Elem(), name+"[]")
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, pointerFields(f.Type, name+"."+f.Name)...)
		}
		return out
	}
	return nil
}
