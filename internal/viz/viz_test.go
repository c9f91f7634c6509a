package viz

import (
	"encoding/xml"
	"math"
	"strings"
	"testing"
)

// wellFormed checks that the SVG parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func TestGroupedBars(t *testing.T) {
	svg, err := GroupedBars("test chart", "FCT (ms)",
		[]string{"leaf-spine", "DRing"},
		[]BarGroup{
			{Label: "A2A", Values: []float64{1.2, 1.1}},
			{Label: "R2R", Values: []float64{1.5, 0.4}},
		})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	for _, want := range []string{"test chart", "A2A", "R2R", "leaf-spine", "DRing", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

func TestGroupedBarsValidation(t *testing.T) {
	if _, err := GroupedBars("t", "y", nil, nil); err == nil {
		t.Fatal("empty chart accepted")
	}
	if _, err := GroupedBars("t", "y", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{1, 2}}}); err == nil {
		t.Fatal("ragged group accepted")
	}
	if _, err := GroupedBars("t", "y", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{math.NaN()}}}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestGroupedBarsAllZero(t *testing.T) {
	svg, err := GroupedBars("z", "y", []string{"a"}, []BarGroup{{Label: "x", Values: []float64{0}}})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
}

func TestLines(t *testing.T) {
	svg, err := Lines("scale", "racks", "ratio", []Series{
		{Name: "p99", X: []float64{42, 66, 90}, Y: []float64{1.0, 1.3, 2.0}},
		{Name: "median", X: []float64{42, 66, 90}, Y: []float64{1.0, 1.4, 2.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if !strings.Contains(svg, "polyline") || !strings.Contains(svg, "circle") {
		t.Fatal("missing marks")
	}
}

func TestLinesValidation(t *testing.T) {
	if _, err := Lines("t", "x", "y", nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Lines("t", "x", "y", []Series{{Name: "a", X: []float64{1}, Y: nil}}); err == nil {
		t.Fatal("ragged accepted")
	}
}

func TestHeatmapSVG(t *testing.T) {
	svg, err := HeatmapSVG("fig5", "#servers", "#clients",
		[]int{10, 20}, []int{5, 15},
		[][]float64{{0.5, 1.0}, {1.5, 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	for _, want := range []string{"0.50", "2.00", "#servers", "#clients"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
}

func TestHeatmapValidation(t *testing.T) {
	if _, err := HeatmapSVG("t", "x", "y", []int{1}, []int{1}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("ragged heatmap accepted")
	}
	if _, err := HeatmapSVG("t", "x", "y", nil, nil, nil); err == nil {
		t.Fatal("empty heatmap accepted")
	}
}

func TestDivergeColor(t *testing.T) {
	if c := divergeColor(math.NaN(), 2); c != "#eeeeee" {
		t.Fatalf("NaN color = %s", c)
	}
	if c := divergeColor(1, 2); c != "#ffffff" {
		t.Fatalf("center color = %s, want white", c)
	}
	hot := divergeColor(2, 2)
	cold := divergeColor(0.5, 2)
	if hot == cold || hot == "#ffffff" || cold == "#ffffff" {
		t.Fatalf("diverging scale degenerate: %s vs %s", hot, cold)
	}
}

func TestEscape(t *testing.T) {
	svg, err := GroupedBars("a<b & c>d", "y", []string{"s"}, []BarGroup{{Label: "x", Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if strings.Contains(svg, "a<b") {
		t.Fatal("unescaped markup in output")
	}
}
