package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lower", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "higher", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "exec.instr_per_op", Better: "lower", Exact: true}
	free := metricSpec{Name: "gateway.handler_us", Better: "lower"}
	v := func(x float64) metricValue { return metricValue{Value: x} }
	for _, c := range []struct {
		s    metricSpec
		a, b metricValue
		want string
	}{
		{lower, v(100), v(105), verdictUnchanged},
		{lower, v(100), v(111), verdictRegressed},
		{lower, v(100), v(89), verdictImproved},
		{higher, v(100), v(89), verdictRegressed},
		{higher, v(100), v(111), verdictImproved},
		{lower, metricValue{Value: 100, Spread: 0.3}, v(120), verdictUnresolved},
		{lower, v(100), metricValue{Value: 80, Spread: 0.3}, verdictUnresolved},
		{exact, v(9182), v(9182), verdictUnchanged},
		{exact, v(9182), v(9183), verdictRegressed},
		{free, v(10), v(30), verdictUnchanged},
	} {
		if got, _ := verdict(c.s, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.s.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareRunsExitCode(t *testing.T) {
	run := func(p50 float64, failed int) *runFile {
		return &runFile{Workloads: []*workloadResult{{
			Workload: "warm-steady", Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{"lat_p50_us": {Value: p50, Unit: "us"}},
		}}}
	}
	var out bytes.Buffer
	if code := compareRuns(&out, run(100, 0), run(104, 0)); code != 0 || !strings.Contains(out.String(), "no regression") {
		t.Errorf("4%% slower: exit %d\n%s", code, out.String())
	}
	if code := compareRuns(&out, run(100, 0), run(130, 0)); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1", code)
	}
	if code := compareRuns(&out, run(100, 0), run(100, 2)); code != 1 {
		t.Errorf("fail_ratio +0.002: exit %d, want 1", code)
	}
	if code := compareRuns(&out, run(100, 0), run(100, 1)); code != 0 {
		t.Errorf("fail_ratio +0.001: exit %d, want 0", code)
	}
}
