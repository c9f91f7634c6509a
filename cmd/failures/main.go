// Command failures runs the §7 "Impact of failures" studies the paper
// leaves as future work, in two modes.
//
// Static (default): sweep random link-failure fractions on a flat fabric
// and report path dilation, surviving Shortest-Union(K) path diversity,
// BGP reconvergence rounds (incremental, from the pre-failure RIB), and
// tail FCT on the degraded fabric.
//
// Live (-live): inject the failures *during* a packet-level run. Traffic
// blackholes into the stale FIB until detection plus BGP reconvergence
// completes (rounds × -round-delay), then live flows re-path onto the
// repaired FIB. Optional flapping (-flap) and gray links (-gray) model the
// operationally common non-clean failures. The table reports the measured
// blackhole window, RTO victims, and FCT inflation during vs. after the
// window.
//
// Failed trials (e.g. a draw that partitions the fabric) are reported and
// skipped; the sweep continues and the command exits non-zero with a
// summary of which fractions failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"spineless/internal/cli"
	"spineless/internal/core"
	"spineless/internal/parallel"
	"spineless/internal/resilience"
	"spineless/internal/store"
	"spineless/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("failures: ")
	var (
		topoKind  = flag.String("topo", "dring", "fabric: dring, rrg, xpander, debruijn or rng (non-dring fabrics match the dring's equipment)")
		m         = flag.Int("supernodes", 8, "dring supernodes")
		n         = flag.Int("tors", 2, "dring ToRs per supernode")
		ports     = flag.Int("ports", 24, "switch radix")
		k         = flag.Int("k", 2, "Shortest-Union K")
		fractions = flag.String("fractions", "0,0.01,0.05,0.10", "comma-separated link-failure fractions")
		flows     = flag.Int("flows", 300, "uniform-workload flows for FCT replay (0 = skip; live mode requires > 0)")
		shared    = cli.Register(flag.CommandLine, "seed", "workers", "audit", "telemetry", "store")

		live     = flag.Bool("live", false, "inject failures during a packet-level run (transient study)")
		failAt   = flag.Duration("fail-at", 2*time.Millisecond, "live: absolute sim time of the failure")
		detect   = flag.Duration("detect", time.Millisecond, "live: failure-detection delay before reconvergence starts")
		roundDel = flag.Duration("round-delay", 500*time.Microsecond, "live: wall time per synchronous BGP reconvergence round")
		window   = flag.Duration("window", 20*time.Millisecond, "live: flow-arrival window")
		flap     = flag.Int("flap", 0, "live: number of failed trunks that flap instead of staying down")
		gray     = flag.Int("gray", 0, "live: number of surviving trunks turned gray at the failure")
		grayLoss = flag.Float64("gray-loss", 0.05, "live: per-packet loss probability on gray trunks")
		grayRate = flag.Float64("gray-rate", 1.0, "live: rate factor on gray trunks (1 = undegraded)")
		preserve = flag.Bool("preserve-connectivity", false, "live: redraw cut sets that would partition racks")
	)
	flag.Parse()

	run, err := shared.Start("failures")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	// Non-dring fabrics are built on the dring's equipment budget.
	// Resilience replay routes with SU(K) on every fabric — selfroute has
	// no reroute story by design.
	dr, err := topology.DRing(topology.Uniform(*m, *n, *ports))
	if err != nil {
		log.Fatal(err)
	}
	g, err := core.OnDRing(*topoKind, dr, rand.New(rand.NewSource(shared.Seed)))
	if err != nil {
		log.Fatal(err)
	}

	var fracs []float64
	for _, f := range strings.Split(*fractions, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			log.Fatalf("bad fraction %q", f)
		}
		fracs = append(fracs, v)
	}

	cache, rec := run.Cache, run.Telemetry
	base := cellSpec{
		V: 1, Topo: *topoKind, Supernodes: *m, Tors: *n, Ports: *ports,
		K: *k, Flows: *flows, Seed: shared.Seed,
	}

	if *live {
		cfg := resilience.DefaultLiveConfig()
		cfg.K = *k
		cfg.Seed = shared.Seed
		cfg.Flows = *flows
		cfg.FailAtNS = failAt.Nanoseconds()
		cfg.DetectionDelayNS = detect.Nanoseconds()
		cfg.RoundDelayNS = roundDel.Nanoseconds()
		cfg.WindowNS = window.Nanoseconds()
		cfg.FlapLinks = *flap
		cfg.GrayLinks = *gray
		cfg.GrayLoss = *grayLoss
		cfg.GrayRateFactor = *grayRate
		cfg.PreserveConnectivity = *preserve
		cfg.Audit = shared.Audit
		cfg.Telemetry = rec

		fmt.Printf("fabric: %v, Shortest-Union(%d), seed=%d\n", g, *k, shared.Seed)
		fmt.Printf("live faults: fail at %v, detect %v, %v/round; flap=%d gray=%d (loss %.1f%%, rate ×%.2f)\n\n",
			*failAt, *detect, *roundDel, *flap, *gray, *grayLoss*100, *grayRate)
		base.Mode = "live"
		base.FailAtNS = cfg.FailAtNS
		base.DetectNS = cfg.DetectionDelayNS
		base.RoundNS = cfg.RoundDelayNS
		base.WindowNS = cfg.WindowNS
		base.Flap = cfg.FlapLinks
		base.Gray = cfg.GrayLinks
		base.GrayLoss = cfg.GrayLoss
		base.GrayRate = cfg.GrayRateFactor
		base.Preserve = cfg.PreserveConnectivity
		rows, err := cachedLiveSweep(cache, g, cfg, fracs, shared.Workers, base)
		fmt.Println(resilience.LiveTable(rows))
		fmt.Println("repair = fail-at + detect + reconv × round-delay; blackhole = measured first→last packet lost into a down link.")
		if rec != nil {
			fmt.Println(rec.Snapshot().Digest(5))
		}
		exitSweep(err)
		return
	}

	cfg := resilience.DefaultStudyConfig()
	cfg.K = *k
	cfg.Flows = *flows
	cfg.Seed = shared.Seed
	cfg.Fractions = fracs
	cfg.Workers = shared.Workers
	cfg.Audit = shared.Audit
	cfg.Telemetry = rec

	base.Mode = "static"
	fmt.Printf("fabric: %v, Shortest-Union(%d), seed=%d\n\n", g, *k, shared.Seed)
	rows, err := cachedStudy(cache, g, cfg, base)
	if rows != nil {
		fmt.Println(resilience.Table(rows))
		fmt.Println("reconv rounds = synchronous BGP rounds to re-settle from the pre-failure RIB.")
	}
	if rec != nil {
		fmt.Println(rec.Snapshot().Digest(5))
	}
	exitSweep(err)
}

// cellSpec is the cache key for one fraction row: the fabric geometry,
// routing K, workload size, seed, fault schedule and the fraction itself.
// Failed rows are never cached — a draw that partitions the fabric reruns
// next time. Result-neutral knobs (workers, audit) are excluded.
type cellSpec struct {
	V          int     `json:"v"`
	Mode       string  `json:"mode"`
	Topo       string  `json:"topo"`
	Supernodes int     `json:"supernodes"`
	Tors       int     `json:"tors"`
	Ports      int     `json:"ports"`
	K          int     `json:"k"`
	Flows      int     `json:"flows"`
	Seed       int64   `json:"seed"`
	Fraction   float64 `json:"fraction"`
	FailAtNS   int64   `json:"fail_at_ns,omitempty"`
	DetectNS   int64   `json:"detect_ns,omitempty"`
	RoundNS    int64   `json:"round_ns,omitempty"`
	WindowNS   int64   `json:"window_ns,omitempty"`
	Flap       int     `json:"flap,omitempty"`
	Gray       int     `json:"gray,omitempty"`
	GrayLoss   float64 `json:"gray_loss,omitempty"`
	GrayRate   float64 `json:"gray_rate,omitempty"`
	Preserve   bool    `json:"preserve,omitempty"`
}

// cachedLiveSweep runs resilience.RunLive at each failure fraction, on up
// to workers goroutines, through a per-fraction cache. Each fraction is an
// independent trial isolated by core.Trial: a failed fraction (e.g. a draw
// that partitions the fabric) contributes a TrialError and no row, and is
// never cached. Rows and errors keep fraction order at any worker count.
func cachedLiveSweep(cache *store.Cache, g *topology.Graph, cfg resilience.LiveConfig, fracs []float64, workers int, base cellSpec) ([]resilience.LiveResult, error) {
	results := make([]resilience.LiveResult, len(fracs))
	errs := make([]error, len(fracs))
	_ = parallel.ForEach(workers, len(fracs), func(i int) error {
		c := cfg
		c.Fraction = fracs[i]
		spec := base
		spec.Fraction = fracs[i]
		label := fmt.Sprintf("fraction %.3f", fracs[i])
		errs[i] = core.Trial(label, func() error {
			var e error
			results[i], _, e = store.Memoize(cache, label, spec, func() (resilience.LiveResult, error) {
				return resilience.RunLive(g, c)
			})
			return e
		})
		return nil
	})
	var rows []resilience.LiveResult
	var terrs core.TrialErrors
	for i, err := range errs {
		if err != nil {
			terrs = append(terrs, err.(core.TrialError))
			continue
		}
		rows = append(rows, results[i])
	}
	if len(terrs) > 0 {
		return rows, terrs
	}
	return rows, nil
}

// cachedStudy is resilience.Study with a per-fraction cache. Each miss runs
// a single-fraction Study (re-deriving the base FIB/RIB, which a hit skips
// entirely); failed fractions keep Study's semantics — an Err-marked row, a
// TrialError, and nothing cached.
func cachedStudy(cache *store.Cache, g *topology.Graph, cfg resilience.StudyConfig, base cellSpec) ([]resilience.StudyRow, error) {
	if cache == nil {
		return resilience.Study(g, cfg)
	}
	rows := make([]resilience.StudyRow, len(cfg.Fractions))
	errs := make([]error, len(cfg.Fractions))
	_ = parallel.ForEach(cfg.Workers, len(cfg.Fractions), func(i int) error {
		f := cfg.Fractions[i]
		spec := base
		spec.Fraction = f
		row, _, err := store.Memoize(cache, fmt.Sprintf("fraction %.3f", f), spec, func() (resilience.StudyRow, error) {
			single := cfg
			single.Fractions = []float64{f}
			rs, serr := resilience.Study(g, single)
			if serr != nil {
				return resilience.StudyRow{}, serr
			}
			return rs[0], nil
		})
		if err != nil {
			rows[i] = resilience.StudyRow{Fraction: f, Err: err}
			errs[i] = err
			return nil
		}
		rows[i] = row
		return nil
	})
	var terrs core.TrialErrors
	var fatal error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var sub core.TrialErrors
		if errors.As(err, &sub) {
			terrs = append(terrs, sub...)
		} else if fatal == nil {
			fatal = err // setup failure, not a per-trial one
		}
	}
	if fatal != nil {
		return rows, fatal
	}
	if len(terrs) > 0 {
		return rows, terrs
	}
	return rows, nil
}

// exitSweep reports a sweep's aggregated trial failures and exits non-zero
// if any trial (or the setup itself) failed.
func exitSweep(err error) {
	if err == nil {
		return
	}
	var terrs core.TrialErrors
	if errors.As(err, &terrs) {
		fmt.Fprintf(os.Stderr, "failures: %d trial(s) failed:\n", len(terrs))
		for _, te := range terrs {
			fmt.Fprintf(os.Stderr, "  %s\n", te.Error())
		}
	} else {
		fmt.Fprintf(os.Stderr, "failures: %v\n", err)
	}
	os.Exit(1)
}
