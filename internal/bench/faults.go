package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/wasm/exec"
)

// faultSeed fixes the injector PRNG for every cell so the whole ablation is
// reproducible: same seed, same fault sequence, same counters.
const faultSeed = 42

// FaultMeasurement is one cell of the faults ablation grid.
type FaultMeasurement struct {
	Engine    string
	FaultRate float64
	Resilient bool
	Report    serve.Report
	Faults    faults.Stats
	// PressureEvictions counts warm instances the node reclaimed during the
	// injected memory-pressure episodes.
	PressureEvictions int
}

// resilientDispatcherConfig adds the resilience layer to a baseline serving
// dispatcher config: capped-exponential retries and a per-request timeout.
func resilientDispatcherConfig(cfg serve.DispatcherConfig) serve.DispatcherConfig {
	cfg.MaxRetries = 2
	cfg.RetryBackoffCap = 8 * time.Millisecond
	cfg.RequestTimeout = 500 * time.Millisecond
	return cfg
}

// MeasureFaultServing runs one chaos serving experiment: the standard warm
// pool on a simulated worker node, with a seeded fault injector arming
// instantiation failures, guest traps, slow cold starts (all at faultRate;
// traps and failures both at or above the acceptance floor when faultRate
// is), and two node memory-pressure episodes that drain warm-pool idle
// instances through the kubelet attachment. The resilient arm turns on
// retries and the request timeout; the baseline arm serves the same faults
// with the plain dispatcher. The admission identity
// Submitted == Completed + Rejected + Expired + Failed is verified before
// returning — a violation is an error, not a table cell.
func MeasureFaultServing(p engine.Profile, faultRate float64, resilient bool, ratePerSec float64, window time.Duration) (FaultMeasurement, error) {
	const poolSize = 8
	cfg := servingDispatcherConfig(poolSize)
	if resilient {
		cfg = resilientDispatcherConfig(cfg)
	}
	g, err := newServingRig(p, exec.DefaultTierPolicy(), p.Name+"-faults", poolSize, cfg)
	if err != nil {
		return FaultMeasurement{}, err
	}
	defer g.rep.Retire()

	// Armed only after pool pre-warming: standby instances must exist so the
	// pressure episodes have something to reclaim, and only request-path work
	// is subjected to faults.
	in := faults.New(faults.Config{
		Seed:                faultSeed,
		InstantiateFailRate: faultRate,
		TrapRate:            faultRate,
		SlowColdRate:        faultRate,
		SlowColdFactor:      4,
		PressureAt:          []time.Duration{window / 3, 2 * window / 3},
	})
	g.eng.SetFaultInjector(in)
	evictions := 0
	in.ArmPressure(g.sim, func() { evictions += g.node.MemoryPressure() })

	d := g.rep.Dispatcher()
	rep := serve.Run(g.sim, d, serve.LoadConfig{
		RatePerSec: ratePerSec,
		Duration:   window,
		Seed:       1,
	})

	st := rep.Dispatcher
	if !st.IdentityHolds() {
		return FaultMeasurement{}, fmt.Errorf(
			"faults %s: accounting identity broken: %+v", p.Name, st)
	}
	if d.InFlight() != 0 || d.QueueLen() != 0 {
		return FaultMeasurement{}, fmt.Errorf(
			"faults %s: stalled requests after drain: inflight=%d queue=%d",
			p.Name, d.InFlight(), d.QueueLen())
	}
	return FaultMeasurement{
		Engine:            p.Name,
		FaultRate:         faultRate,
		Resilient:         resilient,
		Report:            rep,
		Faults:            in.Stats(),
		PressureEvictions: evictions,
	}, nil
}

// FaultRates is the ablation's injected fault-rate axis (applied to
// instantiation, traps, and slow cold starts alike). The top rates clear the
// 10% acceptance floor.
var FaultRates = []float64{0, 0.10, 0.25}

// retryAmplification is attempts per admitted request: 1.0 means no retries
// fired; 1.3 means the fault load inflated pool traffic by 30%.
func retryAmplification(st serve.DispatcherStats) float64 {
	admitted := st.Completed + st.Failed
	if admitted == 0 {
		return 0
	}
	return float64(admitted+st.Retries) / float64(admitted)
}

// The faults ablation's open-loop load.
const (
	faultsWindow = time.Second
	faultsRate   = 150.0
)

// faultsGrid runs every cell of the faults ablation in table order: for each
// engine profile and fault rate, the baseline arm, then the resilient one.
func faultsGrid() ([]FaultMeasurement, error) {
	var out []FaultMeasurement
	for _, p := range engine.Profiles() {
		for _, fr := range FaultRates {
			for _, resilient := range []bool{false, true} {
				m, err := MeasureFaultServing(p, fr, resilient, faultsRate, faultsWindow)
				if err != nil {
					return nil, err
				}
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// AblationFaults sweeps fault rate x dispatcher policy (baseline vs
// resilient) for every engine profile under the chaos serving experiment,
// reporting goodput, failure accounting, retry amplification, pressure
// evictions, and tail latency under faults.
func AblationFaults() (*Table, error) {
	grid, err := faultsGrid()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: fault injection x resilience policy (1s open-loop, 150 r/s, seeded chaos)",
		Columns: []string{
			"engine", "fault rate", "policy", "offered", "goodput (r/s)",
			"failed", "rejected", "expired", "retries", "retry amp",
			"pressure evictions", "p99 (ms)",
		},
	}
	for _, m := range grid {
		st := m.Report.Dispatcher
		policy := "baseline"
		if m.Resilient {
			policy = "resilient"
		}
		t.Rows = append(t.Rows, []string{
			m.Engine,
			fmt.Sprintf("%.2f", m.FaultRate),
			policy,
			fmt.Sprintf("%d", m.Report.Offered),
			fmt.Sprintf("%.0f", float64(st.Completed)/faultsWindow.Seconds()),
			fmt.Sprintf("%d", st.Failed),
			fmt.Sprintf("%d", st.Rejected),
			fmt.Sprintf("%d", st.Expired),
			fmt.Sprintf("%d", st.Retries),
			fmt.Sprintf("%.2f", retryAmplification(st)),
			fmt.Sprintf("%d", m.PressureEvictions),
			fmt.Sprintf("%.3f", m.Report.Latency.P99*1e3),
		})
	}
	t.Notes = append(t.Notes,
		"faults (seeded, deterministic): instantiation failures, guest traps with partial execution, 4x slow cold starts, 2 node memory-pressure episodes draining warm pools",
		"resilient policy: 2 retries w/ capped exponential backoff (1ms..8ms), 500ms request timeout",
		"accounting identity Submitted == Completed+Rejected+Expired+Failed verified for every cell; failed-request latency is included in the percentiles' source histogram",
	)
	return t, nil
}
