package bench

import (
	"reflect"
	"testing"
	"time"

	"wasmcontainers/internal/engine"
)

// TestFaultServingDeterministicAndAccounted is the acceptance check for the
// chaos harness: a fixed-seed cell with instantiate and invoke fault rates
// above the 10% floor completes (MeasureFaultServing itself errors on a
// broken accounting identity or stalled requests), actually exercises every
// fault axis, and reproduces identical counters across two runs.
func TestFaultServingDeterministicAndAccounted(t *testing.T) {
	run := func() FaultMeasurement {
		m, err := MeasureFaultServing(engine.WAMR, 0.25, true, 100, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := run()
	if a.Faults.InstantiateFailures == 0 || a.Faults.Traps == 0 {
		t.Fatalf("chaos did not bite: %+v", a.Faults)
	}
	if a.Faults.PressureEvents != 2 {
		t.Fatalf("pressure events = %d, want 2", a.Faults.PressureEvents)
	}
	if a.PressureEvictions == 0 {
		t.Fatal("pressure episodes reclaimed no warm instances")
	}
	if st := a.Report.Dispatcher; st.Retries == 0 || st.Completed == 0 {
		t.Fatalf("resilience layer inert: %+v", st)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different chaos measurement:\n%+v\n%+v", a, b)
	}
}

// TestFaultFreeResilientMatchesBaseline: with the fault rate at zero, the
// resilient dispatcher must behave exactly like the baseline — the retry,
// and timeout machinery may not perturb a healthy run.
func TestFaultFreeResilientMatchesBaseline(t *testing.T) {
	base, err := MeasureFaultServing(engine.WAMR, 0, false, 100, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureFaultServing(engine.WAMR, 0, true, 100, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Report, res.Report) {
		t.Fatalf("resilience machinery perturbed a fault-free run:\n%+v\n%+v",
			base.Report, res.Report)
	}
}

// TestResilientGoodputNotBelowBaseline checks the claim the resilience layer
// stands on: retries and the request timeout do the recovery. Over the whole
// faults grid, the resilient arm completes at least as many requests as the
// baseline under the same faults, and exactly as many without faults.
func TestResilientGoodputNotBelowBaseline(t *testing.T) {
	grid, err := faultsGrid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(engine.Profiles()) * len(FaultRates); len(grid) != want {
		t.Fatalf("%d cells, want %d", len(grid), want)
	}
	for i := 0; i < len(grid); i += 2 {
		base, res := grid[i], grid[i+1]
		if base.Resilient || !res.Resilient || base.Engine != res.Engine || base.FaultRate != res.FaultRate {
			t.Fatalf("cells %d,%d are not one baseline/resilient pair: %s %.2f %v, %s %.2f %v", i, i+1,
				base.Engine, base.FaultRate, base.Resilient, res.Engine, res.FaultRate, res.Resilient)
		}
		b, r := base.Report.Dispatcher.Completed, res.Report.Dispatcher.Completed
		if r < b {
			t.Errorf("%s at %.2f: resilient completed %d < baseline %d", base.Engine, base.FaultRate, r, b)
		}
		if base.FaultRate == 0 && r != b {
			t.Errorf("%s fault-free: resilient completed %d != baseline %d", base.Engine, r, b)
		}
	}
}
