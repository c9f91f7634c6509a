// Package audit provides the runtime correctness backstop for the
// packet-level simulator: an invariant Auditor implementing netsim.Tracer
// that cross-checks the simulator's manual accounting (packet conservation,
// FIFO bookkeeping, event-time ordering, pool hygiene, TCP sender sanity),
// and a Differential harness validating netsim against the flow-level
// (flowsim) and fluid (fluid) models on a shared workload.
//
// The invariant catalog the Auditor enforces is documented in DESIGN.md §9.
package audit

import (
	"fmt"
	"strings"

	"spineless/internal/netsim"
	"spineless/internal/workload"
)

// maxViolations caps the violation log so a systematically broken run
// cannot grow memory without bound; the count still reflects how many
// distinct violations were observed up to the cap.
const maxViolations = 100

// Auditor observes one netsim run through the Tracer hooks and verifies the
// invariant catalog of DESIGN.md §9. Attach it before Run, then call Finish
// with the run's Results; Finish returns an error listing every distinct
// violation found (nil for a clean run).
//
// The Auditor allocates only when recording a violation, so auditing a
// clean run adds no steady-state allocations beyond the per-flow state
// built at Attach.
type Auditor struct {
	sim  *netsim.Simulator
	size []int64 // per-flow transfer size, for TCP sanity bounds

	lastNS int64 // most recent hook timestamp, for monotonicity

	// Packet conservation counters, split by packet kind and drop reason.
	deliveredData uint64
	deliveredAck  uint64
	dropsData     [3]uint64 // indexed by netsim.DropReason
	dropsAck      [3]uint64

	// Per-flow sender state mirrored from OnCwnd.
	lastUna []int64
	sawCwnd []bool

	seen       map[string]struct{}
	violations []string
}

// Attach installs a new Auditor as sim's tracer. flows must be the same
// slice later passed to Run (the auditor bounds sender state against each
// flow's SizeBytes). It fails if the simulator has already run.
func Attach(sim *netsim.Simulator, flows []workload.Flow) (*Auditor, error) {
	if sim == nil {
		return nil, fmt.Errorf("audit: nil simulator")
	}
	a := &Auditor{
		sim:     sim,
		size:    make([]int64, len(flows)),
		lastUna: make([]int64, len(flows)),
		sawCwnd: make([]bool, len(flows)),
		seen:    make(map[string]struct{}),
	}
	for i, f := range flows {
		a.size[i] = f.SizeBytes
	}
	if err := sim.SetTracer(a); err != nil {
		return nil, err
	}
	return a, nil
}

// violate records a violation once: duplicates (the same message repeating
// every event) collapse to a single entry so persistent breaches do not
// drown distinct ones.
func (a *Auditor) violate(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if _, dup := a.seen[msg]; dup {
		return
	}
	a.seen[msg] = struct{}{}
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, msg)
	}
}

// tick enforces hook-time monotonicity: simulated time may not move
// backwards across any pair of tracer callbacks.
func (a *Auditor) tick(nowNS int64, hook string) {
	if nowNS < a.lastNS {
		a.violate("%s: time moved backwards: %d after %d", hook, nowNS, a.lastNS)
		return
	}
	a.lastNS = nowNS
}

func (a *Auditor) flowOK(flow int32, hook string) bool {
	if flow < 0 || int(flow) >= len(a.size) {
		a.violate("%s: flow index %d out of range [0,%d)", hook, flow, len(a.size))
		return false
	}
	return true
}

// OnEnqueue checks FIFO occupancy sanity at packet acceptance.
func (a *Auditor) OnEnqueue(nowNS int64, link, flow int32, hop int, isAck bool, wireBytes int32, queueBytes int64, queueCount int) {
	a.tick(nowNS, "OnEnqueue")
	a.flowOK(flow, "OnEnqueue")
	if wireBytes <= 0 {
		a.violate("OnEnqueue: non-positive wire size %d (flow %d)", wireBytes, flow)
	}
	if queueBytes < 0 || queueCount < 0 {
		a.violate("OnEnqueue: negative FIFO occupancy bytes=%d count=%d (link %d)", queueBytes, queueCount, link)
	}
	if (queueCount == 0) != (queueBytes == 0) {
		a.violate("OnEnqueue: FIFO count/bytes disagree: count=%d bytes=%d (link %d)", queueCount, queueBytes, link)
	}
	if queueCount > 0 && queueBytes < int64(wireBytes) {
		a.violate("OnEnqueue: FIFO holds %d bytes but just accepted a %dB packet (link %d)", queueBytes, wireBytes, link)
	}
}

// OnTxStart checks the serialization hook's timestamp ordering.
func (a *Auditor) OnTxStart(nowNS int64, link, flow int32, isAck bool, wireBytes int32) {
	a.tick(nowNS, "OnTxStart")
}

// OnDeliver counts end-to-end deliveries for conservation.
func (a *Auditor) OnDeliver(nowNS int64, flow int32, isAck bool, seq int64) {
	a.tick(nowNS, "OnDeliver")
	if isAck {
		a.deliveredAck++
	} else {
		a.deliveredData++
	}
	if a.flowOK(flow, "OnDeliver") && !isAck {
		if seq < 0 || seq >= a.size[flow] {
			a.violate("OnDeliver: data seq %d outside [0,%d) (flow %d)", seq, a.size[flow], flow)
		}
	}
}

// OnDrop counts losses by reason for conservation and counter cross-checks.
func (a *Auditor) OnDrop(nowNS int64, link, flow int32, isAck bool, reason netsim.DropReason) {
	a.tick(nowNS, "OnDrop")
	if int(reason) >= len(a.dropsData) {
		a.violate("OnDrop: unknown drop reason %d", reason)
		return
	}
	if isAck {
		a.dropsAck[reason]++
	} else {
		a.dropsData[reason]++
	}
}

// OnCwnd checks TCP sender sanity after every control-state change.
func (a *Auditor) OnCwnd(nowNS int64, flow int32, cwnd float64, sndUna, sndNxt int64) {
	a.tick(nowNS, "OnCwnd")
	if !a.flowOK(flow, "OnCwnd") {
		return
	}
	if cwnd < 1 {
		a.violate("OnCwnd: cwnd %.4f < 1 segment (flow %d)", cwnd, flow)
	}
	if sndUna < 0 || sndUna > sndNxt {
		a.violate("OnCwnd: sndUna %d outside [0, sndNxt=%d] (flow %d)", sndUna, sndNxt, flow)
	}
	if sndNxt > a.size[flow] {
		a.violate("OnCwnd: sndNxt %d beyond flow size %d (flow %d)", sndNxt, a.size[flow], flow)
	}
	if sndUna < a.lastUna[flow] {
		a.violate("OnCwnd: sndUna regressed %d → %d (flow %d)", a.lastUna[flow], sndUna, flow)
	}
	a.lastUna[flow] = sndUna
	a.sawCwnd[flow] = true
}

// OnStateChange triggers a full simulator self-audit at every fault
// boundary, so FIFO corruption introduced by a link transition is caught at
// the transition rather than at end-of-run.
func (a *Auditor) OnStateChange(nowNS int64, link int32, down bool, lossProb, rateFactor float64) {
	a.tick(nowNS, "OnStateChange")
	if lossProb < 0 || lossProb > 1 {
		a.violate("OnStateChange: loss probability %v outside [0,1] (link %d)", lossProb, link)
	}
	if !down && rateFactor <= 0 {
		a.violate("OnStateChange: up link %d with non-positive rate factor %v", link, rateFactor)
	}
	for _, v := range a.sim.SelfAudit() {
		a.violate("%s", v)
	}
}

// Finish runs the end-of-run invariant checks against the Results of the
// audited Run and returns an error enumerating every distinct violation
// observed (nil when the run was clean). It must be called exactly once,
// after Run returns.
func (a *Auditor) Finish(res netsim.Results) error {
	st := res.Stats

	// Packet conservation: every packet the sender side created is
	// delivered, dropped (with a classified reason), or still in flight.
	dropData := a.dropsData[netsim.DropQueue] + a.dropsData[netsim.DropGray] + a.dropsData[netsim.DropBlackhole]
	dropAck := a.dropsAck[netsim.DropQueue] + a.dropsAck[netsim.DropGray] + a.dropsAck[netsim.DropBlackhole]
	dataOut := a.deliveredData + dropData
	ackOut := a.deliveredAck + dropAck
	if dataOut > st.DataPackets {
		a.violate("conservation: %d data packets delivered+dropped but only %d sent", dataOut, st.DataPackets)
	}
	if ackOut > st.AckPackets {
		a.violate("conservation: %d acks delivered+dropped but only %d sent", ackOut, st.AckPackets)
	}
	if dataOut <= st.DataPackets && ackOut <= st.AckPackets {
		live := (st.DataPackets - dataOut) + (st.AckPackets - ackOut)
		if inFlight := a.sim.PacketsInFlight(); live != inFlight {
			a.violate("conservation: %d packets unaccounted for but %d outstanding in the pool", live, inFlight)
		}
	}

	// Drop counters must agree with the per-reason callback counts.
	if q := a.dropsData[netsim.DropQueue] + a.dropsAck[netsim.DropQueue]; st.Drops != q {
		a.violate("Stats.Drops=%d but tracer observed %d queue drops", st.Drops, q)
	}
	if gr := a.dropsData[netsim.DropGray] + a.dropsAck[netsim.DropGray]; st.GrayDrops != gr {
		a.violate("Stats.GrayDrops=%d but tracer observed %d gray drops", st.GrayDrops, gr)
	}
	if bh := a.dropsData[netsim.DropBlackhole] + a.dropsAck[netsim.DropBlackhole]; st.Blackholed != bh {
		a.violate("Stats.Blackholed=%d but tracer observed %d blackholed packets", st.Blackholed, bh)
	}

	// Completed flows must have acknowledged every byte.
	for i, fct := range res.FCTNS {
		if fct < 0 {
			continue
		}
		if !a.sawCwnd[i] {
			a.violate("flow %d completed without any sender-state callback", i)
			continue
		}
		if a.lastUna[i] != a.size[i] {
			a.violate("flow %d completed with sndUna=%d of %d bytes acked", i, a.lastUna[i], a.size[i])
		}
	}

	// Structural self-audit: FIFO bookkeeping, drop-counter agreement, and
	// any violations (double frees, time regressions) the simulator itself
	// recorded during the run.
	for _, v := range a.sim.SelfAudit() {
		a.violate("%s", v)
	}

	if len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s):\n  %s",
		len(a.violations), strings.Join(a.violations, "\n  "))
}
