package core

import (
	"fmt"
	"math/rand"

	"spineless/internal/metrics"
	"spineless/internal/topology"
)

// UDFRow is one line of the §3.1 analysis: a leaf-spine configuration, its
// analytic NSRs and UDF, and the empirical UDF measured on an actual flat
// rewiring of the same equipment.
type UDFRow struct {
	Spec             topology.LeafSpineSpec
	NSRBase, NSRFlat float64
	UDFAnalytic      float64
	UDFEmpirical     float64
	Racks            int
	Servers          int
}

// UDFStudy computes the §3.1 table for a set of leaf-spine configurations,
// pinning UDF = 2 analytically and measuring it on concrete rewirings.
func UDFStudy(specs []topology.LeafSpineSpec, rng *rand.Rand) ([]UDFRow, error) {
	out := make([]UDFRow, 0, len(specs))
	for _, spec := range specs {
		base, err := topology.LeafSpine(spec)
		if err != nil {
			return nil, err
		}
		flat, err := topology.Flatten(base, rng)
		if err != nil {
			return nil, err
		}
		emp, err := topology.UDF(base, flat)
		if err != nil {
			return nil, err
		}
		nsrB, nsrF, udf := topology.UDFLeafSpineAnalytic(spec)
		out = append(out, UDFRow{
			Spec:         spec,
			NSRBase:      nsrB,
			NSRFlat:      nsrF,
			UDFAnalytic:  udf,
			UDFEmpirical: emp,
			Racks:        len(base.Racks()),
			Servers:      base.Servers(),
		})
	}
	return out, nil
}

// UDFTable renders a UDF study as a text table.
func UDFTable(rows []UDFRow) string {
	var t metrics.Table
	t.AddRow("leaf-spine", "racks", "servers", "NSR(T)", "NSR(F(T))", "UDF analytic", "UDF measured")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("(%d,%d)", r.Spec.X, r.Spec.Y),
			fmt.Sprintf("%d", r.Racks),
			fmt.Sprintf("%d", r.Servers),
			fmt.Sprintf("%.4f", r.NSRBase),
			fmt.Sprintf("%.4f", r.NSRFlat),
			fmt.Sprintf("%.4f", r.UDFAnalytic),
			fmt.Sprintf("%.4f", r.UDFEmpirical),
		)
	}
	return t.String()
}
