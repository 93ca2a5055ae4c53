package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/faults"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/slo"
	"wasmcontainers/internal/obs/tsdb"
	"wasmcontainers/internal/serve"
	"wasmcontainers/internal/workloads"
)

// sloSampleInterval is the ablation's tsdb window length; sloBaseWindow is
// the page rule's long window (its short window is base/12 = 20 ms). The
// fault onset lands mid-run, so the acceptance gate — the page alert firing
// within one evaluation window (the long window) of onset — has the whole
// second half of the run to be checked against.
const (
	sloSampleInterval = 5 * time.Millisecond
	sloBaseWindow     = 240 * time.Millisecond
)

// SLOMeasurement is one arm of the slo ablation.
type SLOMeasurement struct {
	Faulted bool
	Report  serve.Report
	Status  slo.Status
	TSDB    *tsdb.Summary
	// OnsetNs is the sim time the fault injector armed (0 for baseline).
	OnsetNs int64
	// FirstFireNs is the window-close sim time at which the availability
	// page first fired; -1 when it never fired.
	FirstFireNs int64
}

// MeasureSLOServing runs one arm of the slo ablation: the standard serving
// stack with a tsdb sampling on the DES clock (ArmDES event chain, so
// windows close at deterministic sim times) and the burn-rate engine
// evaluating an availability objective after each window. The faulted arm
// arms a 100% trap-rate injector at window/2 via a scheduled DES event; the
// baseline arm runs clean. Both arms verify the admission identity.
func MeasureSLOServing(faulted bool, ratePerSec float64, window time.Duration) (SLOMeasurement, error) {
	sim := des.NewEngine()
	// A local telemetry sink, independent of the harness-wide -telemetry
	// flag: the tsdb samples these counters, so the experiment needs them
	// live unconditionally.
	tele := obs.New(obs.Config{})
	if tr := tele.Tracer(); tr != nil {
		tr.SetClock(func() int64 { return int64(sim.Now()) })
	}

	eng := engine.New(engine.WAMR)
	eng.SetObserver(tele)
	bin, err := workloads.Binary(ServingWorkload)
	if err != nil {
		return SLOMeasurement{}, err
	}
	cm, err := eng.Compile(bin)
	if err != nil {
		return SLOMeasurement{}, err
	}
	const poolSize = 8
	pool, err := serve.NewPool(eng, cm, serve.Config{Size: poolSize})
	if err != nil {
		return SLOMeasurement{}, err
	}
	d := serve.NewDispatcher(sim, pool, servingDispatcherConfig(poolSize))
	d.SetObserver(tele)

	var sloEng *slo.Engine // set below; Evaluate is nil-safe
	firstFire := int64(-1)
	db := tsdb.New(tele, tsdb.Config{
		Interval: sloSampleInterval,
		OnWindow: func(w *tsdb.Window) {
			sloEng.Evaluate(w)
			if firstFire < 0 && sloEng.Firing(slo.Page) {
				firstFire = w.End
			}
		},
	})
	for _, n := range []string{
		"dispatch_submitted_total", "dispatch_completed_total",
		"dispatch_failed_total", "dispatch_rejected_total", "dispatch_expired_total",
	} {
		db.TrackCounter(n)
	}
	db.TrackHistogram("dispatch_latency_ns", tele.Histogram("dispatch_latency_ns"))
	sloEng = slo.New(slo.Config{
		DB:         db,
		Telemetry:  tele,
		BaseWindow: sloBaseWindow,
		Objectives: []slo.Objective{{
			Name: "availability", Kind: slo.Availability, Target: 0.99,
			BadSeries: []string{
				"dispatch_failed_total", "dispatch_rejected_total", "dispatch_expired_total",
			},
			TotalSeries: "dispatch_submitted_total",
		}},
	})
	if sloEng == nil {
		return SLOMeasurement{}, fmt.Errorf("slo: engine failed to construct")
	}
	db.ArmDES(sim, int64(window))

	var onset int64
	if faulted {
		onset = int64(window) / 2
		sim.At(des.Time(onset), func() {
			eng.SetFaultInjector(faults.New(faults.Config{Seed: faultSeed, TrapRate: 1}))
		})
	}

	rep := serve.Run(sim, d, serve.LoadConfig{
		RatePerSec: ratePerSec,
		Duration:   window,
		Seed:       1,
	})
	st := rep.Dispatcher
	if st.Submitted != st.Completed+st.Rejected+st.Expired+st.Failed {
		return SLOMeasurement{}, fmt.Errorf("slo faulted=%v: accounting identity broken: %+v", faulted, st)
	}
	return SLOMeasurement{
		Faulted:     faulted,
		Report:      rep,
		Status:      sloEng.Status(),
		TSDB:        db.Summary(),
		OnsetNs:     onset,
		FirstFireNs: firstFire,
	}, nil
}

// pageState extracts the availability page alert from a status.
func pageState(st slo.Status) (slo.AlertState, error) {
	for _, o := range st.Objectives {
		for _, a := range o.Alerts {
			if a.Severity == slo.Page {
				return a, nil
			}
		}
	}
	return slo.AlertState{}, fmt.Errorf("slo: no page alert declared: %+v", st)
}

// AblationSLO runs the burn-rate alerting ablation: a clean baseline arm and
// an arm with a 100% trap-rate fault onset at mid-run, both sampled into 5 ms
// tsdb windows with the availability page rule (14.4x burn over 240 ms /
// 20 ms). Gates are embedded as errors, not table cells:
//
//   - the baseline arm must never fire (zero page transitions),
//   - the faulted arm must fire within one evaluation window (the page
//     rule's long window) of the fault onset.
//
// The faulted arm's tsdb rollup is attached to the table as the `timeseries`
// block, giving results/slo.json the p99-over-time trajectory across the
// onset.
func AblationSLO() (*Table, error) {
	const (
		window = time.Second
		rate   = 150.0
	)
	t := &Table{
		Title: "Ablation: SLO burn-rate alerting (availability 99%, page 14.4x over 240ms/20ms) under a mid-run fault onset",
		Columns: []string{
			"arm", "offered", "completed", "failed", "windows",
			"page fired", "fire delay (ms)", "budget left", "final long burn",
		},
	}
	for _, faulted := range []bool{false, true} {
		m, err := MeasureSLOServing(faulted, rate, window)
		if err != nil {
			return nil, err
		}
		page, err := pageState(m.Status)
		if err != nil {
			return nil, err
		}
		arm := "baseline"
		fired := m.FirstFireNs >= 0
		delay := "-"
		if faulted {
			arm = "fault@500ms"
			// Embedded gate: fire within one evaluation window of onset.
			if !fired {
				return nil, fmt.Errorf("slo: faulted arm never fired the page: %+v", m.Status)
			}
			if d := m.FirstFireNs - m.OnsetNs; d > int64(sloBaseWindow) {
				return nil, fmt.Errorf("slo: page fired %.1fms after onset, want <= %s",
					float64(d)/1e6, sloBaseWindow)
			}
			delay = fmt.Sprintf("%.1f", float64(m.FirstFireNs-m.OnsetNs)/1e6)
			t.TimeSeries = m.TSDB
		} else if fired || page.Transitions != 0 {
			// Embedded gate: the clean arm stays silent.
			return nil, fmt.Errorf("slo: baseline arm raised the page: %+v", m.Status)
		}
		if m.TSDB == nil || m.TSDB.Windows.Published == 0 {
			return nil, fmt.Errorf("slo: faulted=%v published no windows", faulted)
		}
		st := m.Report.Dispatcher
		budget := "-"
		if len(m.Status.Objectives) > 0 {
			budget = fmt.Sprintf("%.3f", m.Status.Objectives[0].BudgetRemaining)
		}
		t.Rows = append(t.Rows, []string{
			arm,
			fmt.Sprintf("%d", m.Report.Offered),
			fmt.Sprintf("%d", st.Completed),
			fmt.Sprintf("%d", st.Failed),
			fmt.Sprintf("%d", m.TSDB.Windows.Published),
			fmt.Sprintf("%v", fired),
			delay,
			budget,
			fmt.Sprintf("%.1fx", page.LongBurn),
		})
	}
	t.Notes = append(t.Notes,
		"windows close on the DES clock (ArmDES event chain), so both arms are bit-reproducible; the fault onset is a scheduled DES event at t=500ms",
		"gates embedded as errors: baseline must stay silent; the faulted arm must fire the availability page within one long window (240ms) of onset",
		"the timeseries block is the faulted arm's rollup: counter rates, and dispatch_latency_ns p99 per 5ms window across the onset",
	)
	return t, nil
}
