package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// spread returns the distance between the first and third quartile of xs
// as a share of their median — the quartiles of Python's
// statistics.quantiles(xs, n=4) — or 0 for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := median(s)
	if mid == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / mid
}

// verdict places the new median against the base by the metric's bound.
// Neither better nor worse with a spread on either side wider than the
// bound is unresolved, not same.
func verdict(d metricDecl, base, cur []float64) string {
	b, c := median(base), median(cur)
	gain := (c - b) / b
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -d.Bound:
		return "worse"
	case gain > d.Bound:
		return "better"
	case spread(base) > d.Bound || spread(cur) > d.Bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per metric and workload — base median, new
// median, their ratio, and for an end-to-end metric the verdict — and
// checks that the exact-repeat counts of the training workloads are
// identical wherever both files ran the same seed. It reports false when
// a metric is worse or a count differs.
func compareFiles(out io.Writer, basePath, newPath, only string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	// values of one metric over the runs of one workload and pass
	collect := func(recs []*record, w string, trace int, metric string) (vals []float64, bySeed map[uint64][]float64) {
		bySeed = map[uint64][]float64{}
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == w && r.Trace == trace {
				vals = append(vals, v.Value)
				bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
			}
		}
		return vals, bySeed
	}
	ok := true
	fmt.Fprintf(out, "%-14s %-30s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	row := func(w string, d metricDecl, trace int, gated bool) {
		b, bSeeds := collect(base, w, trace, d.Name)
		c, cSeeds := collect(cur, w, trace, d.Name)
		if len(b) == 0 || len(c) == 0 {
			return
		}
		mb, mc := median(b), median(c)
		v := "-"
		if gated {
			v = verdict(d, b, c)
			ok = ok && v != "worse"
			v += fmt.Sprintf(" (bound %.2f, spread %.3f / %.3f, runs %d / %d)", d.Bound, spread(b), spread(c), len(b), len(c))
		}
		exact := strings.HasPrefix(w, "train.") && (d.Name == "accuracy" || slices.Contains(exactRepeat, d.Name))
		if exact {
			for seed, bv := range bSeeds {
				for _, x := range append(bv, cSeeds[seed]...) {
					if x != bv[0] {
						v += fmt.Sprintf("; DIFFERS for seed %d (%v vs %v)", seed, bv[0], x)
						ok = false
						break
					}
				}
			}
		}
		ratio := 0.0
		if mb != 0 {
			ratio = mc / mb
		}
		fmt.Fprintf(out, "%-14s %-30s %14.6g %14.6g %8.3f  %s\n", w, d.Name, mb, mc, ratio, v)
	}
	for _, w := range workloads {
		if only != "all" && only != w.Name {
			continue
		}
		for _, d := range endToEnd {
			row(w.Name, d, 0, true)
		}
		for _, d := range perLayer {
			row(w.Name, d, 1, false)
		}
	}
	return ok, nil
}
