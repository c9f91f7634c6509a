package core

import (
	"spineless/internal/audit"
	"spineless/internal/netsim"
	"spineless/internal/telemetry"
	"spineless/internal/workload"
)

// Observers is how a packet run is watched. FCTConfig and the resilience
// Live/Study configs embed it, and Run below is the one place the
// experiment layers attach anything to a simulator. Both observers need
// the simulator's single tracer slot, so setting both fails the run with
// netsim.SetTracer's error — the slot guards itself.
type Observers struct {
	// Audit runs the simulation under the runtime invariant auditor
	// (internal/audit): any violation — broken packet conservation, FIFO
	// corruption, TCP insanity — fails the run instead of silently skewing
	// the figures. Adds tracing overhead; results are unchanged.
	Audit bool
	// Telemetry, when non-nil, binds one telemetry sink per simulation and
	// the recorder merges them live (trials share a time origin, so pooled
	// series read as aggregate offered load; sinks on differently shaped
	// fabrics merge to totals only). Purely observational — results are
	// unchanged.
	Telemetry *telemetry.Recorder
}

// Run attaches the configured observers to sim, runs flows through it and
// settles the audit. sim is taken already constructed so a caller can
// install faults first. classOf, when non-nil, is the per-flow class
// attribution of a job-class workload; the telemetry sink then records
// per-class goodput.
func (o Observers) Run(sim *netsim.Simulator, flows []workload.Flow, classOf []uint8) (netsim.Results, error) {
	var aud *audit.Auditor
	var err error
	if o.Audit {
		if aud, err = audit.Attach(sim, flows); err != nil {
			return netsim.Results{}, err
		}
	}
	if o.Telemetry != nil {
		if classOf != nil {
			_, err = o.Telemetry.AttachClassed(sim, classOf)
		} else {
			_, err = o.Telemetry.Attach(sim, len(flows))
		}
		if err != nil {
			return netsim.Results{}, err
		}
	}
	res, err := sim.Run(flows)
	if err != nil {
		return netsim.Results{}, err
	}
	if aud != nil {
		if err := aud.Finish(res); err != nil {
			return netsim.Results{}, err
		}
	}
	return res, nil
}
