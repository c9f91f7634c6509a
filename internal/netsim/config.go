// Package netsim is a deterministic packet-level discrete-event simulator
// for data-center fabrics: store-and-forward links with drop-tail FIFO
// queues, TCP Reno/NewReno senders, and per-flow multipath routing supplied
// by a routing.Scheme. It stands in for the htsim-based simulator the paper
// uses (§5.3); see DESIGN.md for the substitution argument.
package netsim

import (
	"fmt"
	"time"
)

// Config sets the fabric and transport parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	LinkRateBps float64 // switch-to-switch link rate
	HostRateBps float64 // server NIC rate; 0 = LinkRateBps

	LinkDelayNS int64 // per-hop propagation + switching latency
	HostDelayNS int64 // host-to-ToR latency; 0 = LinkDelayNS

	QueueBytes int64 // drop-tail queue capacity per egress port

	MSS         int     // TCP max segment payload, bytes
	HeaderBytes int     // L2-L4 header overhead per data segment
	AckBytes    int     // wire size of a pure ACK
	InitCwnd    float64 // initial congestion window, segments
	// InitSsthresh caps slow start (segments). Without SACK, a deep
	// slow-start overshoot burst-drops tens of segments and NewReno then
	// recovers one hole per RTT; real stacks temper this with ssthresh
	// caching/HyStart. 0 means effectively unbounded.
	InitSsthresh float64
	MinRTO       time.Duration
	MaxRTO       time.Duration

	MaxSimTime time.Duration // safety stop; flows unfinished then are marked incomplete

	// ECN enables DCTCP-style transport: switches mark packets (CE) when
	// the instantaneous egress queue exceeds ECNThresholdBytes, receivers
	// echo the marks per packet, and senders scale cwnd by (1 − α/2) once
	// per window, where α is the EWMA (gain DCTCPGain) of the marked
	// fraction. Loss handling is unchanged. This is an extension beyond the
	// paper (which uses plain TCP, §5.3) used for transport ablations.
	ECN               bool
	ECNThresholdBytes int64   // default 30 KB (≈20 packets)
	DCTCPGain         float64 // default 1/16

	// FlowletTimeout, when positive, enables flowlet switching [25]: if a
	// flow pauses longer than this gap, its next burst may take a different
	// path (the flowlet id feeds the path hash). §2 lists flowlet switching
	// among the non-standard mechanisms earlier expander designs required;
	// it is implemented here as an ablation. A gap exceeding the path-delay
	// skew keeps reordering rare, exactly as Sinha et al. argue.
	FlowletTimeout time.Duration
}

// DefaultConfig mirrors the paper's setup (§5.3): 10 Gbps links and TCP,
// with htsim-typical 100-packet queues, 1 µs hop latency and 1 ms min RTO.
func DefaultConfig() Config {
	return Config{
		LinkRateBps:  10e9,
		LinkDelayNS:  1000,
		QueueBytes:   100 * 1500,
		MSS:          1460,
		HeaderBytes:  40,
		AckBytes:     40,
		InitCwnd:     10,
		InitSsthresh: 64,
		MinRTO:       time.Millisecond,
		MaxRTO:       200 * time.Millisecond,
		MaxSimTime:   20 * time.Second,
	}
}

func (c Config) validate() error {
	if c.LinkRateBps <= 0 {
		return fmt.Errorf("netsim: LinkRateBps must be positive")
	}
	if c.MSS <= 0 || c.HeaderBytes < 0 || c.AckBytes <= 0 {
		return fmt.Errorf("netsim: bad packet sizing (MSS=%d header=%d ack=%d)", c.MSS, c.HeaderBytes, c.AckBytes)
	}
	if c.QueueBytes < int64(c.MSS+c.HeaderBytes) {
		return fmt.Errorf("netsim: queue smaller than one segment")
	}
	if c.InitCwnd < 1 {
		return fmt.Errorf("netsim: InitCwnd must be >= 1")
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("netsim: bad RTO bounds")
	}
	if c.MaxSimTime <= 0 {
		return fmt.Errorf("netsim: MaxSimTime must be positive")
	}
	if c.ECN {
		if c.ECNThresholdBytes <= 0 {
			return fmt.Errorf("netsim: ECN enabled with non-positive threshold")
		}
		if c.DCTCPGain <= 0 || c.DCTCPGain > 1 {
			return fmt.Errorf("netsim: DCTCPGain must be in (0, 1]")
		}
	}
	return nil
}

// WithDCTCP returns a copy of c with DCTCP-style ECN enabled at the
// conventional 20-packet marking threshold and gain 1/16.
func (c Config) WithDCTCP() Config {
	c.ECN = true
	c.ECNThresholdBytes = 20 * int64(c.MSS+c.HeaderBytes)
	c.DCTCPGain = 1.0 / 16
	return c
}

func (c Config) hostRate() float64 {
	if c.HostRateBps > 0 {
		return c.HostRateBps
	}
	return c.LinkRateBps
}

func (c Config) hostDelay() int64 {
	if c.HostDelayNS > 0 {
		return c.HostDelayNS
	}
	return c.LinkDelayNS
}
