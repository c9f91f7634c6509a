package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns loads the untraced results of an NDJSON file written by -append,
// grouped by workload.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict judges b against a for one metric: the change in the direction
// that counts as worse, as a share of a's median, against the bound; and
// "unresolved" when either side's own spread (Q3−Q1 over the median) is wider
// than the bound, so the comparison cannot tell a regression from noise.
func verdict(m e2eInfo, a, b []float64) (worse float64, word string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	if medA == 0 || medB == 0 { //lint:allow floateq (exact zero: an absent metric, never a measurement)
		return 0, "unresolved"
	}
	spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
	worse = (medB - medA) / medA
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "outside"
	default:
		word = "within"
	}
	return worse, word
}

func values(runs []result, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric): both sides'
// medians and quartiles, the bound, and the verdict; then whether the
// result digests of the two sides agree seed by seed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-13s %-19s %3s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "n", "median A", "[Q1, Q3] A", "median B", "[Q1, Q3] B", "B worse", "bound", "verdict")
	bad := 0
	for _, wl := range workloadInfos {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			q1a, medA, q3a := quartiles(va)
			q1b, medB, q3b := quartiles(vb)
			worse, word := verdict(m, va, vb)
			if word != "within" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-19s %3d %12.4f %25s %12.4f %25s %+7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, min(len(va), len(vb)), medA, fmt.Sprintf("[%.4f, %.4f]", q1a, q3a),
				medB, fmt.Sprintf("[%.4f, %.4f]", q1b, q3b), 100*worse, 100*m.Bound, word)
		}
		fmt.Fprintf(w, "%-13s result_digest: %s\n", wl.Name, digestAgreement(ra, rb))
	}
	fmt.Fprintf(w, "%d pairing(s) not within bound\n", bad)
	return nil
}

// digestAgreement compares result digests seed by seed.
func digestAgreement(a, b []result) string {
	bySeed := map[int64]string{}
	for _, r := range a {
		bySeed[r.Seed] = r.ResultDigest
	}
	var seeds []int64
	same, differ := 0, 0
	for _, r := range b {
		d, ok := bySeed[r.Seed]
		switch {
		case !ok:
		case d == r.ResultDigest:
			same++
		default:
			differ++
			seeds = append(seeds, r.Seed)
		}
	}
	if differ > 0 {
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		return fmt.Sprintf("DIFFERS on seeds %v (%d of %d shared seeds)", seeds, differ, same+differ)
	}
	return fmt.Sprintf("identical on all %d shared seeds", same)
}
