package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spineless/internal/metrics"
)

// Totals are a sink's lifetime counters, immune to ring eviction.
type Totals struct {
	TxBytes        uint64   `json:"tx_bytes"`
	DropsQueue     uint64   `json:"drops_queue"`
	DropsGray      uint64   `json:"drops_gray"`
	DropsBlackhole uint64   `json:"drops_blackhole"`
	GoodputBytes   []uint64 `json:"goodput_bytes_by_class"`
	PeakQueueBytes int64    `json:"peak_queue_bytes"`
	CwndUpdates    uint64   `json:"cwnd_updates"`
	LinkEvents     uint64   `json:"link_events"`
	LinksDown      int      `json:"links_down"`
}

// Drops returns the per-reason totals indexed by netsim.DropReason.
func (t Totals) Drops() [NumDropReasons]uint64 {
	return [NumDropReasons]uint64{t.DropsQueue, t.DropsGray, t.DropsBlackhole}
}

// Snapshot is a copied, time-ordered view of a sink's retained window:
// series[i] covers absolute bucket FirstBucket+i, i.e. simulated time
// [(FirstBucket+i)·BucketNS, (FirstBucket+i+1)·BucketNS). A snapshot is a
// plain value — safe to read, merge, or marshal while the run continues.
type Snapshot struct {
	BucketNS    int64 `json:"bucket_ns"`
	FirstBucket int64 `json:"first_bucket"`
	Links       int   `json:"links"`
	Classes     int   `json:"classes"`

	// TxBytes[link][i] and QueuePeak[link][i] are per-link series;
	// Drops[reason][i] is indexed by netsim.DropReason; Goodput[class][i]
	// by flow class.
	TxBytes   [][]int64  `json:"tx_bytes,omitempty"`
	QueuePeak [][]int64  `json:"queue_peak,omitempty"`
	Drops     [][]uint64 `json:"drops,omitempty"`
	Goodput   [][]int64  `json:"goodput,omitempty"`

	// RateBps is the per-link nominal capacity used by utilization
	// renderings (nil when the sink was built without rates).
	RateBps []float64 `json:"-"`

	// Mixed marks a merge across sinks whose fabrics had different link
	// counts (e.g. a resilience Study whose fractions replay on different
	// degraded fabrics): per-link series are meaningless across such runs
	// and are dropped; Totals still aggregate.
	Mixed bool `json:"mixed,omitempty"`

	Totals Totals `json:"totals"`
}

// SameShape reports whether two snapshots' series are commensurable:
// equal bucket width, link count and class count.
func (sn *Snapshot) SameShape(other *Snapshot) bool {
	return sn.BucketNS == other.BucketNS && sn.Links == other.Links && sn.Classes == other.Classes
}

// Buckets returns the number of retained buckets in the snapshot's series.
func (sn *Snapshot) Buckets() int {
	if len(sn.Drops) > 0 {
		return len(sn.Drops[0])
	}
	return 0
}

// Snapshot copies the sink's retained window. It takes the sink's mutex,
// so it is safe concurrently with a run in flight; cost is O(window), off
// the hot path.
func (s *Sink) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()

	sn := &Snapshot{
		BucketNS: s.cfg.BucketNS,
		Links:    s.links,
		Classes:  s.cfg.Classes,
		RateBps:  s.rateBps,
		Totals: Totals{
			TxBytes:        s.totTx,
			DropsQueue:     s.totDrops[0],
			DropsGray:      s.totDrops[1],
			DropsBlackhole: s.totDrops[2],
			GoodputBytes:   append([]uint64(nil), s.totGoodput...),
			PeakQueueBytes: s.peakQueue,
			CwndUpdates:    s.cwndUpdates,
			LinkEvents:     s.linkEvents,
			LinksDown:      s.linksDown,
		},
	}
	if s.head < 0 {
		return sn
	}
	first := s.head - int64(s.cfg.Buckets) + 1
	if first < 0 {
		first = 0
	}
	n := int(s.head - first + 1)
	sn.FirstBucket = first

	sn.TxBytes = make([][]int64, s.links)
	sn.QueuePeak = make([][]int64, s.links)
	for l := 0; l < s.links; l++ {
		sn.TxBytes[l] = make([]int64, n)
		sn.QueuePeak[l] = make([]int64, n)
	}
	sn.Drops = make([][]uint64, NumDropReasons)
	for r := range sn.Drops {
		sn.Drops[r] = make([]uint64, n)
	}
	sn.Goodput = make([][]int64, s.cfg.Classes)
	for c := range sn.Goodput {
		sn.Goodput[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		slot := (first + int64(i)) % int64(s.cfg.Buckets)
		for l := 0; l < s.links; l++ {
			sn.TxBytes[l][i] = s.txBytes[slot*int64(s.links)+int64(l)]
			sn.QueuePeak[l][i] = s.queuePeak[slot*int64(s.links)+int64(l)]
		}
		for r := 0; r < NumDropReasons; r++ {
			sn.Drops[r][i] = s.drops[slot*NumDropReasons+int64(r)]
		}
		for c := 0; c < s.cfg.Classes; c++ {
			sn.Goodput[c][i] = s.goodput[slot*int64(s.cfg.Classes)+int64(c)]
		}
	}
	return sn
}

// Merge folds other into sn: counters (tx, drops, goodput) sum, queue
// peaks take the max — the convention for pooling trials that share a time
// origin (core.FCTConfig.Trials reruns the same window with per-trial
// seeds, so summed series read as aggregate offered load). The merged
// window is the union of both windows. Shapes (bucket width, link and
// class counts) must match.
func (sn *Snapshot) Merge(other *Snapshot) error {
	if other == nil {
		return nil
	}
	if !sn.SameShape(other) {
		return fmt.Errorf("telemetry: merging mismatched snapshots (bucket %d/%d ns, %d/%d links, %d/%d classes)",
			sn.BucketNS, other.BucketNS, sn.Links, other.Links, sn.Classes, other.Classes)
	}
	if other.Buckets() > 0 {
		if sn.Buckets() == 0 {
			sn.FirstBucket = other.FirstBucket
		}
		first := min64(sn.FirstBucket, other.FirstBucket)
		last := max64(sn.FirstBucket+int64(sn.Buckets()), other.FirstBucket+int64(other.Buckets())) - 1
		n := int(last - first + 1)
		sn.TxBytes = mergeI64(sn.TxBytes, sn.FirstBucket, other.TxBytes, other.FirstBucket, first, n, false)
		sn.QueuePeak = mergeI64(sn.QueuePeak, sn.FirstBucket, other.QueuePeak, other.FirstBucket, first, n, true)
		sn.Drops = mergeU64(sn.Drops, sn.FirstBucket, other.Drops, other.FirstBucket, first, n)
		sn.Goodput = mergeI64(sn.Goodput, sn.FirstBucket, other.Goodput, other.FirstBucket, first, n, false)
		sn.FirstBucket = first
	}
	if sn.RateBps == nil {
		sn.RateBps = other.RateBps
	}
	sn.AddTotals(other.Totals)
	return nil
}

// AddTotals folds other's lifetime counters into sn's (sums, except queue
// peak which takes the max) without touching the series — the shape-free
// half of Merge.
func (sn *Snapshot) AddTotals(other Totals) {
	sn.Totals.TxBytes += other.TxBytes
	sn.Totals.DropsQueue += other.DropsQueue
	sn.Totals.DropsGray += other.DropsGray
	sn.Totals.DropsBlackhole += other.DropsBlackhole
	if len(sn.Totals.GoodputBytes) < len(other.GoodputBytes) {
		g := make([]uint64, len(other.GoodputBytes))
		copy(g, sn.Totals.GoodputBytes)
		sn.Totals.GoodputBytes = g
	}
	for c, v := range other.GoodputBytes {
		sn.Totals.GoodputBytes[c] += v
	}
	if other.PeakQueueBytes > sn.Totals.PeakQueueBytes {
		sn.Totals.PeakQueueBytes = other.PeakQueueBytes
	}
	sn.Totals.CwndUpdates += other.CwndUpdates
	sn.Totals.LinkEvents += other.LinkEvents
	sn.Totals.LinksDown += other.LinksDown
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// mergeI64 re-bases both series groups onto the window [first, first+n)
// and folds b into a (sum, or max when usePeak).
func mergeI64(a [][]int64, aFirst int64, b [][]int64, bFirst int64, first int64, n int, usePeak bool) [][]int64 {
	rows := len(a)
	if len(b) > rows {
		rows = len(b)
	}
	out := make([][]int64, rows)
	for r := range out {
		out[r] = make([]int64, n)
		if r < len(a) {
			copy(out[r][aFirst-first:], a[r])
		}
		if r < len(b) {
			off := bFirst - first
			for i, v := range b[r] {
				if usePeak {
					if v > out[r][off+int64(i)] {
						out[r][off+int64(i)] = v
					}
				} else {
					out[r][off+int64(i)] += v
				}
			}
		}
	}
	return out
}

func mergeU64(a [][]uint64, aFirst int64, b [][]uint64, bFirst int64, first int64, n int) [][]uint64 {
	rows := len(a)
	if len(b) > rows {
		rows = len(b)
	}
	out := make([][]uint64, rows)
	for r := range out {
		out[r] = make([]uint64, n)
		if r < len(a) {
			copy(out[r][aFirst-first:], a[r])
		}
		if r < len(b) {
			off := bFirst - first
			for i, v := range b[r] {
				out[r][off+int64(i)] += v
			}
		}
	}
	return out
}

// Utilization returns link l's series as a fraction of nominal capacity
// (nil when the snapshot has no link rates or no window).
func (sn *Snapshot) Utilization(l int) []float64 {
	if sn.RateBps == nil || sn.Buckets() == 0 || l < 0 || l >= len(sn.TxBytes) {
		return nil
	}
	bucketSec := float64(sn.BucketNS) / 1e9
	out := make([]float64, sn.Buckets())
	for i, tx := range sn.TxBytes[l] {
		out[i] = float64(tx) * 8 / (sn.RateBps[l] * bucketSec)
	}
	return out
}

// TopLinks returns the ids of the n busiest links by retained tx bytes,
// busiest first (ties break toward the lower id, keeping the ordering
// deterministic).
func (sn *Snapshot) TopLinks(n int) []int {
	type lt struct {
		id int
		tx int64
	}
	all := make([]lt, len(sn.TxBytes))
	for l, series := range sn.TxBytes {
		var t int64
		for _, v := range series {
			t += v
		}
		all[l] = lt{id: l, tx: t}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].tx != all[j].tx {
			return all[i].tx > all[j].tx
		}
		return all[i].id < all[j].id
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].id
	}
	return out
}

// Digest renders a human-readable run summary: lifetime totals, per-class
// goodput, and the topN busiest links' mean/peak utilization over the
// retained window. Mixed snapshots (sinks from differently shaped fabrics)
// carry no per-link series, so the digest degrades to totals only — the
// same degradation Snapshot.Merge applies.
func (sn *Snapshot) Digest(topN int) string {
	var b strings.Builder
	t := sn.Totals
	fmt.Fprintf(&b, "telemetry: tx %s, drops queue=%d gray=%d blackhole=%d, peak queue %s, cwnd updates %d, links down %d\n",
		fmtBytes(t.TxBytes), t.DropsQueue, t.DropsGray, t.DropsBlackhole,
		fmtBytes(uint64(t.PeakQueueBytes)), t.CwndUpdates, t.LinksDown)
	if len(t.GoodputBytes) > 1 {
		b.WriteString("goodput by class:")
		for c, g := range t.GoodputBytes {
			fmt.Fprintf(&b, " [%d]=%s", c, fmtBytes(g))
		}
		b.WriteByte('\n')
	}
	if sn.Mixed {
		b.WriteString("per-link series unavailable: merged sinks span differently shaped fabrics\n")
		return b.String()
	}
	if sn.Buckets() == 0 {
		b.WriteString("no retained window (no packets observed)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "retained window: %d buckets × %s from t=%s\n",
		sn.Buckets(), fmtDur(sn.BucketNS), fmtDur(sn.FirstBucket*sn.BucketNS))
	links := sn.TopLinks(topN)
	for _, l := range links {
		u := sn.Utilization(l)
		var mean, peak float64
		for _, v := range u {
			mean += v
			if v > peak {
				peak = v
			}
		}
		if len(u) > 0 {
			mean /= float64(len(u))
		}
		fmt.Fprintf(&b, "  link %4d: mean util %5.1f%%  peak %5.1f%%\n", l, mean*100, peak*100)
	}
	return b.String()
}

func fmtBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%dB", v)
}

func fmtDur(ns int64) string { return time.Duration(ns).String() }

// UtilHeatmap renders the maxLinks busiest links' utilization over the
// retained window as a metrics.Heatmap: Y is the link id, X the bucket's
// start time in microseconds, cells the fraction of nominal capacity.
// Links never observed transmitting stay unset (empty CSV fields).
func (sn *Snapshot) UtilHeatmap(title string, maxLinks int) *metrics.Heatmap {
	links := sn.TopLinks(maxLinks)
	n := sn.Buckets()
	xt := make([]int, n)
	for i := range xt {
		xt[i] = int((sn.FirstBucket + int64(i)) * sn.BucketNS / 1000)
	}
	h := metrics.NewHeatmap(title, "t_us", "link", xt, links)
	for yi, l := range links {
		u := sn.Utilization(l)
		for xi := 0; xi < n && xi < len(u); xi++ {
			if sn.TxBytes[l][xi] > 0 {
				h.Set(xi, yi, u[xi])
			}
		}
	}
	return h
}
