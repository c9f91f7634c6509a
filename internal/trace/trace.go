// Package trace moves experiment artifacts in and out as CSV: it reads
// rack-level traffic matrices (so operators can replay their own telemetry
// instead of the synthetic FB-like stand-ins) and writes per-flow
// completion times. Both formats are plain CSV with a header row.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"spineless/internal/workload"
)

// ReadMatrix parses a rack-level matrix from CSV: a header row
// ("src\dst,0,1,...") plus one row per source rack, each of n+1 cells (the
// rack id, then its n demands).
func ReadMatrix(r io.Reader, name string) (*workload.Matrix, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: matrix CSV needs a header and at least one row")
	}
	n := len(records) - 1
	if len(records[0]) != n+1 {
		return nil, fmt.Errorf("trace: matrix CSV header has %d columns for %d rows", len(records[0]), n)
	}
	m := workload.NewMatrix(name, n)
	for i, rec := range records[1:] {
		if len(rec) != n+1 {
			return nil, fmt.Errorf("trace: row %d has %d cells, want %d", i, len(rec), n+1)
		}
		for j := 0; j < n; j++ {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d col %d: %w", i, j, err)
			}
			m.W[i][j] = v
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteFCTs emits per-flow completion times next to their flows:
// id,src,dst,bytes,start_ns,fct_ns (fct −1 = incomplete).
func WriteFCTs(w io.Writer, flows []workload.Flow, fctNS []int64) error {
	if len(flows) != len(fctNS) {
		return fmt.Errorf("trace: %d flows but %d FCTs", len(flows), len(fctNS))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "src", "dst", "bytes", "start_ns", "fct_ns"}); err != nil {
		return err
	}
	for i, f := range flows {
		if err := cw.Write([]string{
			strconv.FormatUint(f.ID, 10),
			strconv.Itoa(f.Src),
			strconv.Itoa(f.Dst),
			strconv.FormatInt(f.SizeBytes, 10),
			strconv.FormatInt(f.StartNS, 10),
			strconv.FormatInt(fctNS[i], 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
