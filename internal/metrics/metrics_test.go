package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if got := Percentile(vals, 50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(vals, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(vals, 25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
	// Interpolation: p50 of {1,2} = 1.5.
	if got := Percentile([]float64{2, 1}, 50); got != 1.5 {
		t.Fatalf("p50 of pair = %v, want 1.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentileQuickMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		a, b := float64(aRaw)*100/255, float64(bRaw)*100/255
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(vals, a), Percentile(vals, b)
		if pa > pb {
			return false
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return pa >= sorted[0] && pb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeFCT(t *testing.T) {
	fcts := []int64{1e6, 2e6, 3e6, -1, 4e6} // ms: 1,2,3,4 + one incomplete
	st := SummarizeFCT(fcts)
	if st.Count != 4 || st.Incomplete != 1 {
		t.Fatalf("count=%d incomplete=%d", st.Count, st.Incomplete)
	}
	if st.MedianMS != 2.5 || st.MaxMS != 4 || st.MeanMS != 2.5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P99MS < 3.9 || st.P99MS > 4 {
		t.Fatalf("p99 = %v", st.P99MS)
	}
}

// TestSummarizeFCTMatchesPercentile: the one-sort summary is bit-identical
// to the reference — the percentiles from Percentile's own copy and sort,
// the mean summed in flow order — and leaves its input alone.
func TestSummarizeFCTMatchesPercentile(t *testing.T) {
	f := func(raw []int64) bool {
		fcts := make([]int64, len(raw))
		var done []float64
		sum, mx := 0.0, 0.0
		for i, v := range raw {
			if v%5 == 0 {
				fcts[i] = -1 // incomplete
				continue
			}
			fcts[i] = v & (1<<40 - 1)
			ms := float64(fcts[i]) / 1e6
			done = append(done, ms)
			sum += ms
			mx = math.Max(mx, ms)
		}
		in := append([]int64(nil), fcts...)
		st := SummarizeFCT(fcts)
		if !slices.Equal(in, fcts) || st.Count != len(done) || st.Incomplete != len(fcts)-len(done) {
			return false
		}
		if len(done) == 0 {
			return math.IsNaN(st.MedianMS) && math.IsNaN(st.MeanMS)
		}
		return st.MedianMS == Percentile(done, 50) && st.P99MS == Percentile(done, 99) &&
			st.MeanMS == sum/float64(len(done)) && st.MaxMS == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeFCTAllIncomplete(t *testing.T) {
	st := SummarizeFCT([]int64{-1, -1})
	if st.Count != 0 || st.Incomplete != 2 || !math.IsNaN(st.MedianMS) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTableAlignment(t *testing.T) {
	var tb Table
	tb.AddRow("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("no header rule:\n%s", s)
	}
	if !strings.Contains(lines[3], "longer-name  22") {
		t.Fatalf("misaligned:\n%s", s)
	}
	var empty Table
	if empty.String() != "" {
		t.Fatal("empty table should render empty")
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("test", "servers", "clients", []int{10, 20}, []int{5, 15})
	h.Set(0, 0, 0.5)
	h.Set(1, 0, 1.1)
	h.Set(0, 1, 1.5)
	h.Set(1, 1, 2.0)
	csv := h.CSV()
	if !strings.Contains(csv, "clients\\servers,10,20") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "5,0.5000,1.1000") {
		t.Fatalf("csv row: %q", csv)
	}
	ascii := h.String()
	for _, g := range []string{". ", "+ ", "* ", "# "} {
		if !strings.Contains(ascii, g) {
			t.Fatalf("ascii missing glyph %q:\n%s", g, ascii)
		}
	}
	// Unset cell renders as NaN.
	h2 := NewHeatmap("", "x", "y", []int{1}, []int{1})
	if !strings.Contains(h2.String(), "? ") {
		t.Fatal("NaN glyph missing")
	}
}

// TestHeatmapCSVUnsetCells is the regression test for the NaN-cell bug:
// a partially filled heatmap used to render unset cells as literal "NaN",
// which poisons spreadsheet and numeric-CSV readers. Unset cells must
// become empty fields while set cells keep their numeric form.
func TestHeatmapCSVUnsetCells(t *testing.T) {
	h := NewHeatmap("partial", "t_us", "link", []int{100, 200, 300}, []int{7, 9})
	h.Set(0, 0, 0.25)
	h.Set(2, 1, 1.0)
	csv := h.CSV()
	if strings.Contains(csv, "NaN") {
		t.Fatalf("CSV leaks literal NaN:\n%s", csv)
	}
	if !strings.Contains(csv, "7,0.2500,,\n") {
		t.Fatalf("row 7 should keep its set cell and empty the rest:\n%s", csv)
	}
	if !strings.Contains(csv, "9,,,1.0000\n") {
		t.Fatalf("row 9 should have two empty fields then the set cell:\n%s", csv)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("ratio broken")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("divide by zero not NaN")
	}
}

func TestTableUnicodeAlignment(t *testing.T) {
	// "λ/ε" is 3 runes but 6 UTF-8 bytes: byte-counted widths would pad the
	// column 3 cells too wide and misalign every following column.
	var tb Table
	tb.AddRow("λ/ε", "x")
	tb.AddRow("abc", "y")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), tb.String())
	}
	header, row := lines[0], lines[2]
	if hx, rx := strings.IndexRune(header, 'x'), strings.IndexRune(row, 'y'); hx < 0 || rx < 0 ||
		len([]rune(header[:hx])) != len([]rune(row[:strings.IndexRune(row, 'y')])) {
		t.Fatalf("second column misaligned (x at %d, y at %d):\n%s", hx, rx, tb.String())
	}
	_ = row
}

func TestHeatmapEmptyTicksDoNotPanic(t *testing.T) {
	for _, h := range []*Heatmap{
		NewHeatmap("t", "x", "y", nil, nil),
		NewHeatmap("t", "x", "y", []int{1, 2}, nil),
		NewHeatmap("t", "x", "y", nil, []int{1, 2}),
	} {
		if s := h.String(); s == "" {
			t.Fatalf("empty heatmap rendered nothing (x=%d y=%d ticks)", len(h.XTicks), len(h.YTicks))
		}
		if c := h.CSV(); !strings.HasPrefix(c, "y\\x") {
			t.Fatalf("empty heatmap CSV lost its header: %q", c)
		}
	}
}
