package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for two result sets written with --record (the
// parent's first, the change's second), one row per workload and
// end-to-end metric: each side's median and quartiles and a verdict
// (see verdict). Only timed runs (--trace 0) are compared.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hostbench compare [--bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench compare:", err)
		return 1
	}
	var sets [2][]record
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench compare:", err)
			return 1
		}
		sets[i], err = readRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	var order []string
	values := map[string][2][]float64{} // workload \x00 metric → parent, change
	for side, recs := range sets {
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if !slices.Contains(order, r.Workload) {
				order = append(order, r.Workload)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := r.Result.Metrics[m.Name]; ok {
					k := r.Workload + "\x00" + m.Name
					vs := values[k]
					vs[side] = append(vs[side], v.Value)
					values[k] = vs
				}
			}
		}
	}
	fmt.Fprintf(w, "%-16s %-18s %-36s %-36s %8s  %s\n", "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "delta", "verdict")
	for _, wl := range order {
		for _, m := range spec.EndToEnd {
			vs := values[wl+"\x00"+m.Name]
			delta := (median(vs[1])/median(vs[0]) - 1) * 100
			fmt.Fprintf(w, "%-16s %-18s %-36s %-36s %+7.2f%%  %s\n", wl, m.Name,
				quartileCell(vs[0]), quartileCell(vs[1]), delta, verdict(vs[0], vs[1], m.Better == "lower", m.Bound))
		}
	}
	return 0
}

func quartileCell(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

// verdict compares a change's runs of one metric with its parent's:
//
//   - "better" when every change run beats every parent run, or when the
//     change's median improves on the parent's by more than the parent's
//     own spread and the change wins at least nine in ten index-paired
//     runs (ties count for neither side);
//   - "unresolved" when either side's spread (interquartile distance
//     over median) is wider than the bound, so no smaller move shows;
//   - "worse" when the change's median is worse by more than the bound;
//   - "within" otherwise.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return "missing"
	}
	better := func(c, p float64) bool { return c < p == lowerBetter && c != p }
	all := true
	for _, c := range change {
		for _, p := range parent {
			all = all && better(c, p)
		}
	}
	if all {
		return "better"
	}
	if max(spread(parent), spread(change)) > bound {
		return "unresolved"
	}
	mp, mc := median(parent), median(change)
	worse := (mc - mp) / mp
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	wins, pairs := 0, min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if -worse > spread(parent) && wins*10 >= pairs*9 {
		return "better"
	}
	return "within"
}
