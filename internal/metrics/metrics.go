// Package metrics provides the small statistics and rendering toolkit the
// experiment harnesses share: percentiles, FCT summaries, aligned tables
// and heatmaps (Figure 5 is a heatmap; Figures 4 and 6 are built from FCT
// percentiles).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is Percentile on a non-empty, ascending slice.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// FCTStats summarizes flow completion times.
type FCTStats struct {
	Count      int
	Incomplete int
	MedianMS   float64
	P99MS      float64
	MeanMS     float64
	MaxMS      float64
}

// SummarizeFCT converts per-flow nanosecond FCTs (-1 = incomplete) into
// millisecond statistics. Incomplete flows are counted but excluded from
// the percentiles.
func SummarizeFCT(fctNS []int64) FCTStats {
	st := FCTStats{}
	for _, v := range fctNS {
		if v < 0 {
			st.Incomplete++
		}
	}
	done := make([]float64, 0, len(fctNS)-st.Incomplete)
	// Sum in flow order, before the sort, so the mean's rounding does not
	// depend on the sort.
	sum, mx := 0.0, 0.0
	for _, v := range fctNS {
		if v < 0 {
			continue
		}
		ms := float64(v) / 1e6
		done = append(done, ms)
		sum += ms
		mx = math.Max(mx, ms)
	}
	st.Count = len(done)
	if len(done) == 0 {
		st.MedianMS, st.P99MS, st.MeanMS, st.MaxMS = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return st
	}
	sort.Float64s(done)
	st.MedianMS = percentileSorted(done, 50)
	st.P99MS = percentileSorted(done, 99)
	st.MeanMS = sum / float64(len(done))
	st.MaxMS = mx
	return st
}

// Table renders rows of cells as an aligned text table. The first row is
// the header, separated by a rule.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			// Rune count, not byte length: fmt's %-*s pads to a rune
			// width, so byte-counted widths misalign non-ASCII headers.
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			total := 0
			for i := 0; i < len(r); i++ {
				total += widths[i] + 2
			}
			b.WriteString(strings.Repeat("-", max(total-2, 1)))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Heatmap is a 2D grid of values with axis tick labels — the shape of the
// paper's Figure 5 panels.
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	XTicks []int
	YTicks []int
	// Cells[y][x] follows YTicks/XTicks ordering.
	Cells [][]float64
}

// NewHeatmap allocates a heatmap with NaN cells.
func NewHeatmap(title, xlabel, ylabel string, xticks, yticks []int) *Heatmap {
	cells := make([][]float64, len(yticks))
	for i := range cells {
		cells[i] = make([]float64, len(xticks))
		for j := range cells[i] {
			cells[i][j] = math.NaN()
		}
	}
	return &Heatmap{Title: title, XLabel: xlabel, YLabel: ylabel,
		XTicks: append([]int(nil), xticks...), YTicks: append([]int(nil), yticks...), Cells: cells}
}

// Set assigns the cell at (xi, yi) tick indices.
func (h *Heatmap) Set(xi, yi int, v float64) { h.Cells[yi][xi] = v }

// empty reports whether the heatmap has no cells to render; String and CSV
// degrade to a header-only rendering rather than indexing empty tick slices.
func (h *Heatmap) empty() bool {
	return len(h.XTicks) == 0 || len(h.YTicks) == 0
}

// CSV renders the heatmap as comma-separated values with axis headers.
func (h *Heatmap) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\\%s", h.YLabel, h.XLabel)
	if h.empty() {
		b.WriteString("\n")
		return b.String()
	}
	for _, x := range h.XTicks {
		fmt.Fprintf(&b, ",%d", x)
	}
	b.WriteString("\n")
	for yi, y := range h.YTicks {
		fmt.Fprintf(&b, "%d", y)
		for xi := range h.XTicks {
			// Unset cells (NaN since NewHeatmap) render as empty fields:
			// a literal "NaN" poisons spreadsheet and numeric-CSV readers.
			if v := h.Cells[yi][xi]; math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.4f", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// String renders an ASCII view: one glyph per cell bucketed by value, so
// the ratio structure of Figure 5 is visible in a terminal.
func (h *Heatmap) String() string {
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	fmt.Fprintf(&b, "%s ↓ / %s →\n", h.YLabel, h.XLabel)
	if h.empty() {
		b.WriteString("(no cells)\n")
		return b.String()
	}
	for yi := len(h.YTicks) - 1; yi >= 0; yi-- {
		fmt.Fprintf(&b, "%6d |", h.YTicks[yi])
		for xi := range h.XTicks {
			b.WriteString(glyph(h.Cells[yi][xi]))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%6s  ", "")
	for range h.XTicks {
		b.WriteString("--")
	}
	fmt.Fprintf(&b, "\n%6s  %d..%d\n", "", h.XTicks[0], h.XTicks[len(h.XTicks)-1])
	b.WriteString("legend: '. '<0.75  '- '<1.0  '+ '<1.25  '* '<1.75  '# '>=1.75  '? 'NaN\n")
	return b.String()
}

func glyph(v float64) string {
	switch {
	case math.IsNaN(v):
		return "? "
	case v < 0.75:
		return ". "
	case v < 1.0:
		return "- "
	case v < 1.25:
		return "+ "
	case v < 1.75:
		return "* "
	default:
		return "# "
	}
}

// Ratio returns a/b, or NaN when b is zero.
func Ratio(a, b float64) float64 {
	// Exact zero is the spec here: any other b must divide through.
	if b == 0 { //lint:allow floateq
		return math.NaN()
	}
	return a / b
}
