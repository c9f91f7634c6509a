package netsim

import (
	"fmt"
	"math/rand"

	"spineless/internal/faults"
)

// InstallFaults arms a fault schedule on the simulator. It must be called
// before Run. Events are applied in (time, insertion) order; gray-failure
// loss draws come from a rand.Rand seeded with the schedule's Seed, so runs
// are reproducible byte for byte. Host links cannot fail: every event must
// name an existing switch-to-switch link, and a LinkDown/GraySet affects
// all parallel copies in both directions.
func (s *Simulator) InstallFaults(sched *faults.Schedule) error {
	if sched == nil {
		return nil
	}
	if s.ran {
		return fmt.Errorf("netsim: InstallFaults after Run")
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	events := sched.Sorted()
	for _, e := range events {
		if e.A < 0 || e.A >= s.g.N() || !s.g.HasLink(e.A, e.B) {
			return fmt.Errorf("netsim: fault %s on non-existent link %d-%d", e.Kind, e.A, e.B)
		}
	}
	s.faultEvents = events
	s.faultIdx = 0
	s.faultRNG = rand.New(rand.NewSource(sched.Seed))
	return nil
}

// applyDueFaults applies every scheduled event at or before now, then
// re-arms the evFault timer for the next one.
func (s *Simulator) applyDueFaults() {
	for s.faultIdx < len(s.faultEvents) && s.faultEvents[s.faultIdx].TimeNS <= s.now {
		s.applyFault(s.faultEvents[s.faultIdx])
		s.faultIdx++
	}
	if s.faultIdx < len(s.faultEvents) {
		s.push(s.faultEvents[s.faultIdx].TimeNS, evFault, 0, 0)
	}
}

func (s *Simulator) applyFault(e faults.Event) {
	for _, dir := range [2][2]int{{e.A, e.B}, {e.B, e.A}} {
		u, v := dir[0], dir[1]
		for j, w := range s.g.Neighbors(u) {
			if w != v {
				continue
			}
			id := s.portOff[u] + int32(j)
			l := &s.links[id]
			switch e.Kind {
			case faults.LinkDown:
				l.down = true
				for l.queued() > 0 {
					s.blackhole(id, s.dequeue(l))
				}
			case faults.LinkUp:
				l.down = false
			case faults.GraySet:
				l.lossProb = e.LossProb
				s.setRate(l, s.nominalBytesPerNS(id)*e.RateFactor)
			case faults.GrayClear:
				l.lossProb = 0
				s.setRate(l, s.nominalBytesPerNS(id))
			}
			if s.tracer != nil {
				s.tracer.OnStateChange(s.now, id, l.down, l.lossProb, l.bytesPerNS/s.nominalBytesPerNS(id))
			}
		}
	}
}

// blackhole discards packet pid, lost into down link id, tracking the
// observed blackhole window.
func (s *Simulator) blackhole(id, pid int32) {
	p := s.pkt(pid)
	s.stats.Blackholed++
	if s.blackholeFirst < 0 {
		s.blackholeFirst = s.now
	}
	s.blackholeLast = s.now
	if s.tracer != nil {
		s.tracer.OnDrop(s.now, id, p.flow, p.isAck, DropBlackhole)
	}
	s.free(pid)
}

// reroute advances the time-varying scheme to the current phase and
// re-resolves every live flow's paths on it — the moment reconvergence
// completes and the repaired FIB is installed fabric-wide. Flows whose
// rack pair is unreachable under the new scheme keep their stale paths
// (and keep blackholing), mirroring a genuinely partitioned fabric.
// A flow that started while its racks were unreachable (nil paths) is
// re-resolved too: once a boundary restores reachability it initializes
// its sender and begins transmitting, instead of staying stranded forever.
func (s *Simulator) reroute() {
	s.activeScheme = s.tv.SchemeAt(s.now)
	for i := range s.flows {
		f := &s.flows[i]
		if !f.started || f.done {
			continue
		}
		spec := f.spec
		srcRack, dstRack := s.g.RackOf(spec.Src), s.g.RackOf(spec.Dst)
		h := spec.ID ^ (f.flowletID * 0x9e3779b97f4a7c15)
		s.fwdBuf = s.activeScheme.AppendPath(s.fwdBuf[:0], srcRack, dstRack, h)
		s.revBuf = s.activeScheme.AppendPath(s.revBuf[:0], dstRack, srcRack, spec.ID^0x5ca1ab1e)
		if len(s.fwdBuf) == 0 || len(s.revBuf) == 0 {
			continue
		}
		stranded := f.data.n == 0
		f.data = s.expandPath(spec.Src, spec.Dst, s.fwdBuf, h)
		f.ack = s.expandPath(spec.Dst, spec.Src, s.revBuf, spec.ID^0x5ca1ab1e)
		s.stats.Reroutes++
		if stranded {
			idx := int32(i)
			s.initSender(f, idx)
			s.trySend(f, idx)
		}
	}
}
