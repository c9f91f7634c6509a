// Package viz renders the experiment artifacts as standalone SVG files so
// the regenerated figures look like figures: grouped bar charts (Figure 4),
// heatmaps (Figure 5) and line charts (Figure 6). Pure stdlib, pure text;
// every renderer is deterministic.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Palette is a colorblind-safe categorical cycle.
var Palette = []string{
	"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb",
}

const (
	fontFamily = "Helvetica, Arial, sans-serif"
	axisColor  = "#444444"
)

type svgBuilder struct {
	strings.Builder
}

func newSVG(w, h int) *svgBuilder {
	b := &svgBuilder{}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	return b
}

func (b *svgBuilder) text(x, y float64, size int, anchor, s string) {
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="%s" font-size="%d" fill="%s" text-anchor="%s">%s</text>`+"\n",
		x, y, fontFamily, size, axisColor, anchor, escape(s))
}

func (b *svgBuilder) line(x1, y1, x2, y2 float64, color string, width float64) {
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, color, width)
}

func (b *svgBuilder) rect(x, y, w, h float64, fill string) {
	fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n", x, y, w, h, fill)
}

func (b *svgBuilder) close() string {
	b.WriteString("</svg>\n")
	return b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// BarGroup is one x-axis position of a grouped bar chart: a label plus one
// value per series.
type BarGroup struct {
	Label  string
	Values []float64
}

// GroupedBars renders a Figure 4-style grouped bar chart. Series names the
// legend entries; every group must carry len(series) values.
func GroupedBars(title, yLabel string, series []string, groups []BarGroup) (string, error) {
	if len(series) == 0 || len(groups) == 0 {
		return "", fmt.Errorf("viz: empty chart")
	}
	maxV := 0.0
	for _, g := range groups {
		if len(g.Values) != len(series) {
			return "", fmt.Errorf("viz: group %q has %d values for %d series", g.Label, len(g.Values), len(series))
		}
		for _, v := range g.Values {
			if math.IsNaN(v) || v < 0 {
				return "", fmt.Errorf("viz: group %q has invalid value", g.Label)
			}
			maxV = math.Max(maxV, v)
		}
	}
	if maxV <= 0 {
		maxV = 1
	}

	const (
		mL, mR, mT, mB = 64.0, 16.0, 40.0, 72.0
		plotH          = 280.0
	)
	groupW := math.Max(30*float64(len(series)+1), 90)
	plotW := groupW * float64(len(groups))
	W := int(mL + plotW + mR)
	H := int(mT + plotH + mB)
	b := newSVG(W, H)
	b.text(float64(W)/2, 22, 15, "middle", title)

	// Y axis with 5 ticks.
	for i := 0; i <= 5; i++ {
		v := maxV * float64(i) / 5
		y := mT + plotH - plotH*float64(i)/5
		b.line(mL, y, mL+plotW, y, "#dddddd", 1)
		b.text(mL-6, y+4, 11, "end", trimFloat(v))
	}
	b.text(14, mT+plotH/2, 12, "middle",
		"") // y-label drawn rotated below
	fmt.Fprintf(b, `<text x="14" y="%.1f" font-family="%s" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		mT+plotH/2, fontFamily, axisColor, mT+plotH/2, escape(yLabel))

	barW := (groupW - 18) / float64(len(series))
	for gi, g := range groups {
		x0 := mL + groupW*float64(gi) + 9
		for si, v := range g.Values {
			h := plotH * v / maxV
			b.rect(x0+barW*float64(si), mT+plotH-h, barW-2, h, Palette[si%len(Palette)])
		}
		b.text(x0+(groupW-18)/2, mT+plotH+16, 11, "middle", g.Label)
	}
	b.line(mL, mT+plotH, mL+plotW, mT+plotH, axisColor, 1.5)

	// Legend row.
	lx := mL
	ly := mT + plotH + 40
	for si, s := range series {
		b.rect(lx, ly-10, 12, 12, Palette[si%len(Palette)])
		b.text(lx+16, ly, 11, "start", s)
		lx += 16 + 7*float64(len(s)) + 24
	}
	return b.close(), nil
}

// Series is one line of a line chart.
type Series struct {
	Name string
	X, Y []float64
}

// Lines renders a Figure 6-style line chart.
func Lines(title, xLabel, yLabel string, series []Series) (string, error) {
	if len(series) == 0 {
		return "", fmt.Errorf("viz: empty chart")
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	for _, s := range series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			return "", fmt.Errorf("viz: series %q malformed", s.Name)
		}
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	maxY *= 1.05

	const (
		mL, mR, mT, mB = 64.0, 20.0, 40.0, 56.0
		plotW, plotH   = 420.0, 280.0
	)
	W, H := int(mL+plotW+mR), int(mT+plotH+mB)
	b := newSVG(W, H)
	b.text(float64(W)/2, 22, 15, "middle", title)
	px := func(x float64) float64 { return mL + plotW*(x-minX)/(maxX-minX) }
	py := func(y float64) float64 { return mT + plotH - plotH*(y-minY)/(maxY-minY) }

	for i := 0; i <= 5; i++ {
		v := minY + (maxY-minY)*float64(i)/5
		b.line(mL, py(v), mL+plotW, py(v), "#dddddd", 1)
		b.text(mL-6, py(v)+4, 11, "end", trimFloat(v))
	}
	for i := 0; i <= 4; i++ {
		v := minX + (maxX-minX)*float64(i)/4
		b.text(px(v), mT+plotH+18, 11, "middle", trimFloat(v))
	}
	b.line(mL, mT+plotH, mL+plotW, mT+plotH, axisColor, 1.5)
	b.line(mL, mT, mL, mT+plotH, axisColor, 1.5)
	b.text(mL+plotW/2, float64(H)-22, 12, "middle", xLabel)
	fmt.Fprintf(b, `<text x="16" y="%.1f" font-family="%s" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		mT+plotH/2, fontFamily, axisColor, mT+plotH/2, escape(yLabel))

	for si, s := range series {
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), Palette[si%len(Palette)])
		for i := range s.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				px(s.X[i]), py(s.Y[i]), Palette[si%len(Palette)])
		}
		b.text(mL+8, mT+14+14*float64(si), 11, "start", s.Name)
		b.rect(mL+plotW-90, mT+6+14*float64(si), 10, 3, Palette[si%len(Palette)])
		b.text(mL+plotW-76, mT+12+14*float64(si), 11, "start", s.Name)
	}
	return b.close(), nil
}

// HeatmapSVG renders a Figure 5-style heatmap: cells colored on a diverging
// scale centered at 1.0 (blue < 1 < red), with tick labels.
func HeatmapSVG(title, xLabel, yLabel string, xTicks, yTicks []int, cells [][]float64) (string, error) {
	if len(yTicks) == 0 || len(xTicks) == 0 || len(cells) != len(yTicks) {
		return "", fmt.Errorf("viz: malformed heatmap")
	}
	const (
		mL, mR, mT, mB = 64.0, 90.0, 40.0, 56.0
		cell           = 36.0
	)
	plotW, plotH := cell*float64(len(xTicks)), cell*float64(len(yTicks))
	W, H := int(mL+plotW+mR), int(mT+plotH+mB)
	b := newSVG(W, H)
	b.text(float64(W)/2, 22, 14, "middle", title)

	// Scale bounds from data (symmetric around 1 in log space).
	maxDev := 1.0
	for _, row := range cells {
		if len(row) != len(xTicks) {
			return "", fmt.Errorf("viz: ragged heatmap row")
		}
		for _, v := range row {
			if !math.IsNaN(v) && v > 0 {
				maxDev = math.Max(maxDev, math.Max(v, 1/v))
			}
		}
	}
	for yi, row := range cells {
		// yTicks ascend upward like the paper's panels.
		y := mT + plotH - cell*float64(yi+1)
		for xi, v := range row {
			b.rect(mL+cell*float64(xi), y, cell-1, cell-1, divergeColor(v, maxDev))
			if !math.IsNaN(v) {
				b.text(mL+cell*float64(xi)+cell/2, y+cell/2+4, 10, "middle", fmt.Sprintf("%.2f", v))
			}
		}
		b.text(mL-6, y+cell/2+4, 11, "end", fmt.Sprintf("%d", yTicks[yi]))
	}
	for xi, t := range xTicks {
		b.text(mL+cell*float64(xi)+cell/2, mT+plotH+16, 11, "middle", fmt.Sprintf("%d", t))
	}
	b.text(mL+plotW/2, float64(H)-20, 12, "middle", xLabel)
	fmt.Fprintf(b, `<text x="16" y="%.1f" font-family="%s" font-size="12" fill="%s" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		mT+plotH/2, fontFamily, axisColor, mT+plotH/2, escape(yLabel))

	// Color-scale legend.
	lx := mL + plotW + 16
	for i := 0; i <= 8; i++ {
		frac := float64(i) / 8
		v := math.Pow(maxDev, 2*frac-1) // from 1/maxDev to maxDev
		b.rect(lx, mT+plotH-plotH*frac, 14, plotH/8+1, divergeColor(v, maxDev))
		if i%2 == 0 {
			b.text(lx+18, mT+plotH-plotH*frac+4, 10, "start", fmt.Sprintf("%.2f", v))
		}
	}
	return b.close(), nil
}

// divergeColor maps v onto a blue-white-red scale centered at 1 (log).
func divergeColor(v, maxDev float64) string {
	if math.IsNaN(v) || v <= 0 {
		return "#eeeeee"
	}
	t := math.Log(v) / math.Log(maxDev) // [-1, 1]
	t = math.Max(-1, math.Min(1, t))
	// Blend white→red for t>0, white→blue for t<0.
	blend := func(a, b int, f float64) int { return int(float64(a) + (float64(b)-float64(a))*f) }
	var r, g, bl int
	if t >= 0 {
		r, g, bl = blend(255, 202, t), blend(255, 58, t), blend(255, 70, t)
	} else {
		r, g, bl = blend(255, 60, -t), blend(255, 110, -t), blend(255, 190, -t)
	}
	return fmt.Sprintf("#%02x%02x%02x", r, g, bl)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
