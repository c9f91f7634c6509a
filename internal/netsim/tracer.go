package netsim

import "fmt"

// DropReason classifies a packet loss for tracing.
type DropReason uint8

const (
	// DropQueue is a drop-tail loss: the egress FIFO had no room.
	DropQueue DropReason = iota
	// DropGray is a gray-failure loss: the link's random per-packet loss
	// fired.
	DropGray
	// DropBlackhole is a packet lost into a down link (stale-FIB blackhole).
	DropBlackhole
)

// String names the reason for violation messages.
func (r DropReason) String() string {
	switch r {
	case DropQueue:
		return "queue"
	case DropGray:
		return "gray"
	case DropBlackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Tracer observes the simulator's data plane. All hooks receive scalar
// arguments only, so an implementation can run allocation-free; the
// simulator calls each hook behind a single nil check, so a nil tracer —
// the default — costs nothing on the hot path (see the allocation pin in
// tracer_test.go and BenchmarkNetsimEvents).
//
// Hook order within one simulated instant follows the event order of the
// run, which is deterministic; a tracer therefore observes an identical
// call sequence on identical inputs. Tracers must not call back into the
// Simulator's mutating API.
type Tracer interface {
	// OnEnqueue fires when a packet is accepted by a link's egress port,
	// whether it starts serializing immediately or waits in the FIFO.
	// hop 0 is the packet's injection at its source host uplink.
	// queueBytes/queueCount report the FIFO occupancy after acceptance
	// (0/0 when the packet went straight to the transmitter).
	OnEnqueue(nowNS int64, link, flow int32, hop int, isAck bool, wireBytes int32, queueBytes int64, queueCount int)
	// OnTxStart fires when a link begins serializing a packet.
	OnTxStart(nowNS int64, link, flow int32, isAck bool, wireBytes int32)
	// OnDeliver fires when a packet is consumed at its destination host
	// (final hop) — not at intermediate hops.
	OnDeliver(nowNS int64, flow int32, isAck bool, seq int64)
	// OnDrop fires when a packet is lost, with the loss reason and the
	// link it was lost at.
	OnDrop(nowNS int64, link, flow int32, isAck bool, reason DropReason)
	// OnCwnd fires after a sender's control state changes (flow start,
	// ACK processing, timeout).
	OnCwnd(nowNS int64, flow int32, cwnd float64, sndUna, sndNxt int64)
	// OnStateChange fires when fault injection alters a link: down/up
	// transitions and gray-failure loss/rate settings.
	OnStateChange(nowNS int64, link int32, down bool, lossProb, rateFactor float64)
}

// SetTracer installs t as the run's tracer. It must be called before Run;
// passing nil keeps tracing disabled (the default). The simulator has one
// tracer slot: installing a second tracer over an installed one is an
// error, never a silent replacement — a displaced invariant auditor would
// report a clean run it did not watch.
func (s *Simulator) SetTracer(t Tracer) error {
	if len(s.flows) != 0 {
		return fmt.Errorf("netsim: SetTracer after Run")
	}
	if t != nil && s.tracer != nil {
		return fmt.Errorf("netsim: the tracer slot already holds a %T; cannot also install a %T (one tracer per run)", s.tracer, t)
	}
	s.tracer = t
	return nil
}

// maxViolations caps the self-audit violation log so a systematically
// broken run cannot grow memory without bound.
const maxViolations = 100

// violate records an internal invariant violation. Violations are only
// collected while a tracer is installed (audited runs), so its fmt cost
// never touches an untraced run.
func (s *Simulator) violate(format string, args ...interface{}) {
	if len(s.violations) >= maxViolations {
		return
	}
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

// PacketsInFlight returns the number of pooled packets currently issued and
// not yet freed — packets sitting in queues, serializing, or propagating.
func (s *Simulator) PacketsInFlight() uint64 {
	return s.allocCount - s.freeCount
}

// Stats returns the run's aggregate counters so far (equal to
// Results.Stats after Run).
func (s *Simulator) Stats() Stats { return s.stats }

// SelfAudit cross-checks the simulator's internal accounting and returns
// any violations found (nil when clean). It verifies, for every link, that
// the cached queueBytes/qCount match a walk of the intrusive FIFO (and that
// head/tail pointers are consistent), and that the aggregate drop counter
// matches the per-link counters. Violations recorded during the run
// (double frees, non-monotone event times) are included. Safe to call at
// any point; the invariant auditor calls it at fault boundaries and at the
// end of the run.
func (s *Simulator) SelfAudit() []string {
	var out []string
	for i := range s.links {
		l := &s.links[i]
		var bytes int64
		n := 0
		var last *packet
		for p := l.qHead; p != nil; p = p.qnext {
			bytes += int64(p.wireSize)
			n++
			last = p
			if n > l.qCount+1 {
				// Cycle or runaway chain: stop walking.
				out = append(out, fmt.Sprintf("link %d: FIFO chain exceeds qCount=%d", i, l.qCount))
				break
			}
		}
		if n != l.qCount {
			out = append(out, fmt.Sprintf("link %d: qCount=%d but FIFO holds %d packets", i, l.qCount, n))
		}
		if bytes != l.queueBytes {
			out = append(out, fmt.Sprintf("link %d: queueBytes=%d but FIFO holds %d bytes", i, l.queueBytes, bytes))
		}
		if last != l.qTail {
			out = append(out, fmt.Sprintf("link %d: qTail does not terminate the FIFO chain", i))
		}
		if (l.qHead == nil) != (l.qTail == nil) {
			out = append(out, fmt.Sprintf("link %d: qHead/qTail nil-ness disagrees", i))
		}
	}
	if ld := s.LinkDrops(); s.stats.Drops != ld {
		out = append(out, fmt.Sprintf("stats.Drops=%d but per-link drop counters sum to %d", s.stats.Drops, ld))
	}
	out = append(out, s.violations...)
	return out
}
