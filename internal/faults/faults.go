// Package faults defines deterministic, seedable fault schedules injected
// into a live packet-level simulation: clean link cuts and repairs at
// absolute sim times, periodic flapping, and gray failures (per-link random
// loss and rate degradation that routing never detects). A Schedule is pure
// data — the netsim package interprets it — so the same schedule and seed
// always reproduce the same run byte for byte.
//
// This is the §7 "Impact of failures" question asked dynamically: the
// static studies in internal/resilience compare steady states, while a
// Schedule makes the transient itself measurable (blackholed packets,
// retransmission timeouts, FCT inflation during the reconvergence window).
package faults

import (
	"fmt"
	"sort"
)

// Kind distinguishes fault events.
type Kind uint8

const (
	// LinkDown cuts every parallel copy of an undirected link: queued
	// packets are dropped and later arrivals blackhole until a LinkUp.
	LinkDown Kind = iota
	// LinkUp restores a previously cut link.
	LinkUp
	// GraySet turns a link gray: each packet entering it is independently
	// dropped with LossProb, and its rate is scaled by RateFactor. The
	// link stays "up" — routing never reacts, which is what makes gray
	// failures costly in practice.
	GraySet
	// GrayClear restores a gray link to nominal loss and rate.
	GrayClear
)

// String names the kind for tables and errors.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case GraySet:
		return "gray-set"
	case GrayClear:
		return "gray-clear"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault on the undirected switch link A-B. Events at
// equal times apply in insertion order, keeping schedules deterministic.
type Event struct {
	TimeNS int64
	Kind   Kind
	A, B   int

	// LossProb and RateFactor apply to GraySet only: per-packet drop
	// probability in [0, 1) and a multiplier in (0, 1] on the nominal link
	// rate (1 = undegraded).
	LossProb   float64
	RateFactor float64
}

// Schedule is an ordered fault plan for one simulation run. Seed drives the
// gray-loss coin flips inside the simulator; everything else is exact.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Cut schedules a clean failure of link a-b at t.
func (s *Schedule) Cut(t int64, a, b int) {
	s.Events = append(s.Events, Event{TimeNS: t, Kind: LinkDown, A: a, B: b})
}

// Restore schedules the repair of link a-b at t.
func (s *Schedule) Restore(t int64, a, b int) {
	s.Events = append(s.Events, Event{TimeNS: t, Kind: LinkUp, A: a, B: b})
}

// Gray schedules a gray failure of link a-b at t: per-packet loss
// probability lossProb and rate scaled by rateFactor (pass 1 to keep the
// nominal rate).
func (s *Schedule) Gray(t int64, a, b int, lossProb, rateFactor float64) {
	s.Events = append(s.Events, Event{
		TimeNS: t, Kind: GraySet, A: a, B: b,
		LossProb: lossProb, RateFactor: rateFactor,
	})
}

// Flap schedules cycles of down/up on link a-b: the first cut lands at
// firstDownNS, each outage lasts downForNS, each recovery lasts upForNS,
// and the last cycle's repair is included (the link ends up).
func (s *Schedule) Flap(a, b int, firstDownNS, downForNS, upForNS int64, cycles int) {
	t := firstDownNS
	for c := 0; c < cycles; c++ {
		s.Cut(t, a, b)
		s.Restore(t+downForNS, a, b)
		t += downForNS + upForNS
	}
}

// Sorted returns the events in application order: ascending time, ties
// broken by insertion order (stable).
func (s *Schedule) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TimeNS < out[j].TimeNS })
	return out
}

// Validate checks event invariants that do not need the fabric: times,
// endpoint sanity, and gray parameters. Link existence is checked by the
// simulator, which knows the fabric.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if e.TimeNS < 0 {
			return fmt.Errorf("faults: event %d (%s %d-%d) at negative time %d", i, e.Kind, e.A, e.B, e.TimeNS)
		}
		if e.A == e.B {
			return fmt.Errorf("faults: event %d (%s) is a self-loop at switch %d", i, e.Kind, e.A)
		}
		if e.A < 0 || e.B < 0 {
			return fmt.Errorf("faults: event %d (%s %d-%d) has a negative endpoint", i, e.Kind, e.A, e.B)
		}
		if e.Kind == GraySet {
			if e.LossProb < 0 || e.LossProb >= 1 {
				return fmt.Errorf("faults: event %d gray loss %.3f outside [0, 1)", i, e.LossProb)
			}
			if e.RateFactor <= 0 || e.RateFactor > 1 {
				return fmt.Errorf("faults: event %d rate factor %.3f outside (0, 1]", i, e.RateFactor)
			}
		}
	}
	return nil
}
