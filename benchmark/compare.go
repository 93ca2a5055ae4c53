package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload x metric.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares a metric's value in the change (b) with the base (a).
// worse is the signed share of the base by which b is worse (negative =
// better). Bounded metrics regress past their bound and improve past it the
// other way; exact ones must repeat digit for digit; unbounded per-layer
// metrics are printed and never gate. A delta beyond the bound that either
// run's own in-run spread could explain is unresolved, not changed.
func verdict(s metricSpec, a, b metricValue) (v string, worse float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if s.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case s.Exact:
		if a.Value != b.Value {
			return verdictRegressed, worse
		}
		return verdictUnchanged, worse
	case s.Bound == 0:
		return verdictUnchanged, worse
	case worse > s.Bound || worse < -s.Bound:
		if a.Spread > s.Bound || b.Spread > s.Bound {
			return verdictUnresolved, worse
		}
		if worse > 0 {
			return verdictRegressed, worse
		}
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// compareFiles prints one row per workload x metric present in both files and
// returns 1 on any regression or a fail_ratio more than failRatioSlack higher.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := readRunFile(pathA)
	b, errB := readRunFile(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareRuns(w, a, b)
}

func compareRuns(w io.Writer, a, b *runFile) int {
	fmt.Fprintf(w, "base   %s seed %d (%s, nproc %d)\nchange %s seed %d (%s, nproc %d)\n\n",
		a.Env.Commit, a.Env.Seed, a.Env.Go, a.Env.NProc, b.Env.Commit, b.Env.Seed, b.Env.Go, b.Env.NProc)
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "change", "worse by", "bound", "verdict")
	regressed := false
	for _, ra := range a.Workloads {
		var rb *workloadResult
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload && r.Traced == ra.Traced {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		specs := append(append([]metricSpec{}, endToEnd...), demoted...)
		if ra.Traced {
			specs = perLayer
		}
		for _, s := range specs {
			va, okA := ra.Metrics[s.Name]
			vb, okB := rb.Metrics[s.Name]
			if !okA && !okB {
				continue
			}
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-30s %14s %14s %9s %7s  %s\n", ra.Workload, s.Name, present(va, okA), present(vb, okB), "", "", verdictUnresolved)
				continue
			}
			v, worse := verdict(s, va, vb)
			bound := "-"
			switch {
			case s.Exact:
				bound = "exact"
			case s.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
			}
			fmt.Fprintf(w, "%-14s %-30s %14.4f %14.4f %+8.2f%% %7s  %s\n", ra.Workload, s.Name, va.Value, vb.Value, 100*worse, bound, v)
			regressed = regressed || v == verdictRegressed
		}
		fa, fb := failRatio(ra), failRatio(rb)
		v := verdictUnchanged
		if fb > fa+failRatioSlack {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-14s %-30s %14.6f %14.6f %9s %7s  %s\n", ra.Workload, "fail_ratio", fa, fb, "", "+0.001", v)
	}
	if regressed {
		fmt.Fprintln(w, "\nregression")
		return 1
	}
	fmt.Fprintln(w, "\nno regression")
	return 0
}

func present(v metricValue, ok bool) string {
	if !ok {
		return "missing"
	}
	return fmt.Sprintf("%.4f", v.Value)
}
