package trace

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"spineless/internal/workload"
)

// TestMatrixRoundTrip: a matrix written as CSV in ReadMatrix's format
// reads back cell for cell.
func TestMatrixRoundTrip(t *testing.T) {
	m := workload.FBSkewed(12, rand.New(rand.NewSource(6)))
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	head := []string{`src\dst`}
	for j := range m.W {
		head = append(head, strconv.Itoa(j))
	}
	if err := cw.Write(head); err != nil {
		t.Fatal(err)
	}
	for i, row := range m.W {
		rec := []string{strconv.Itoa(i)}
		for _, v := range row {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != m.N() {
		t.Fatalf("size %d, want %d", got.N(), m.N())
	}
	for i := range m.W {
		for j := range m.W {
			if got.W[i][j] != m.W[i][j] {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, got.W[i][j], m.W[i][j])
			}
		}
	}
}

func TestReadMatrixRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"src\\dst,0\n",                  // header only
		"src\\dst,0,1\n0,1,2\n",         // 1 row for a 2-col header... (n=1, header 3)
		"src\\dst,0\n0,abc\n",           // non-numeric
		"src\\dst,0,1\n0,0,1\n1,-1,0\n", // negative weight
	}
	for i, c := range cases {
		if _, err := ReadMatrix(strings.NewReader(c), "bad"); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestWriteFCTs(t *testing.T) {
	flows := []workload.Flow{{ID: 7, Src: 1, Dst: 2, SizeBytes: 99, StartNS: 5}}
	var buf bytes.Buffer
	if err := WriteFCTs(&buf, flows, []int64{42}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fct_ns") || !strings.Contains(out, "7,1,2,99,5,42") {
		t.Fatalf("output: %q", out)
	}
	if err := WriteFCTs(&buf, flows, []int64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
