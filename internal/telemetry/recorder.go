package telemetry

import (
	"fmt"
	"sync"

	"spineless/internal/netsim"
)

// Recorder is the caller-facing handle threaded through config layers
// (core.FCTConfig.Telemetry, resilience.LiveConfig.Telemetry): the caller
// builds it with just a Config — before fabric shape or flow count are
// known — and the run layer binds one Sink per simulator via Attach.
// Snapshot merges across every sink bound so far, live, so a service can
// stream a multi-trial run while it executes.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	sinks []*Sink
}

// NewRecorder builds a recorder; cfg zero values take the package
// defaults (100µs buckets, 512-bucket window, 1 class).
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults()}
}

// Attach builds a sink shaped to sim's fabric and a run of flows flows,
// installs it as sim's tracer, and registers it for Snapshot merging.
// Parallel trials may attach concurrently; each gets its own sink. Every
// flow is attributed to class 0.
func (r *Recorder) Attach(sim *netsim.Simulator, flows int) (*Sink, error) {
	return r.attach(sim, flows, nil)
}

// AttachClassed is Attach with an explicit per-run flow→class slice — the
// form used by job-class trials, whose class assignments differ per trial
// window.
func (r *Recorder) AttachClassed(sim *netsim.Simulator, classOf []uint8) (*Sink, error) {
	return r.attach(sim, len(classOf), classOf)
}

func (r *Recorder) attach(sim *netsim.Simulator, flows int, classOf []uint8) (*Sink, error) {
	links := sim.NumLinks()
	rates := make([]float64, links)
	for i := range rates {
		rates[i] = sim.LinkRateBps(int32(i))
	}
	sink, err := NewSink(r.cfg, links, rates, flows, classOf)
	if err != nil {
		return nil, err
	}
	if err := sim.SetTracer(sink); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, sink)
	r.mu.Unlock()
	return sink, nil
}

// Sinks returns how many sinks have been attached so far.
func (r *Recorder) Sinks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sinks)
}

// Snapshot merges the retained windows of every attached sink (trial
// series sum, queue peaks max — see Snapshot.Merge). Sinks bound to
// fabrics with different link counts — a resilience Study replaying each
// fraction on its own degraded fabric — cannot share per-link series; the
// merge then degrades to lifetime totals only and marks the snapshot
// Mixed. It is safe during runs in flight; with no sinks attached yet it
// returns an empty snapshot.
func (r *Recorder) Snapshot() *Snapshot {
	r.mu.Lock()
	sinks := append([]*Sink(nil), r.sinks...)
	r.mu.Unlock()
	if len(sinks) == 0 {
		return &Snapshot{BucketNS: r.cfg.BucketNS, Classes: r.cfg.Classes}
	}
	out := sinks[0].Snapshot()
	for _, s := range sinks[1:] {
		next := s.Snapshot()
		if out.Mixed || !out.SameShape(next) {
			if !out.Mixed {
				out = &Snapshot{BucketNS: out.BucketNS, Classes: out.Classes, Mixed: true, Totals: out.Totals}
			}
			out.AddTotals(next.Totals)
			continue
		}
		// Same shape: Merge cannot fail.
		if err := out.Merge(next); err != nil {
			panic(fmt.Sprintf("telemetry: merge of same-shape snapshots failed: %v", err))
		}
	}
	return out
}
