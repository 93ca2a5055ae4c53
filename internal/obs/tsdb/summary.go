package tsdb

import "wasmcontainers/internal/obs"

// CounterSummary is one counter series' run-level rollup.
type CounterSummary struct {
	Name       string  `json:"name"`
	Total      int64   `json:"total"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// GaugeSummary is one gauge series' run-level rollup over window samples.
type GaugeSummary struct {
	Name string `json:"name"`
	Last int64  `json:"last"`
	Min  int64  `json:"min"`
	Max  int64  `json:"max"`
}

// HistogramSummary is one histogram series' run-level rollup. P99PerWindow is
// the per-window p99 across the retained windows (0 for empty windows) —
// the series successive bench runs diff for regressions over time.
type HistogramSummary struct {
	Name         string  `json:"name"`
	Count        int64   `json:"count"`
	P50          int64   `json:"p50"`
	P99          int64   `json:"p99"`
	P99PerWindow []int64 `json:"p99_per_window,omitempty"`
}

// Summary is the run-level view of a DB, emitted into bench result files as
// the `timeseries` block.
type Summary struct {
	IntervalNs int64              `json:"interval_ns"`
	Windows    Stats              `json:"windows"`
	Counters   []CounterSummary   `json:"counters,omitempty"`
	Gauges     []GaugeSummary     `json:"gauges,omitempty"`
	Histograms []HistogramSummary `json:"histograms,omitempty"`
}

// Summary rolls the retained windows up into a JSON-able report: per-counter
// totals and whole-run rates, per-gauge min/max/last, per-histogram merged
// quantiles plus the p99-over-time series. Nil when disabled or before the
// first window closes.
func (db *DB) Summary() *Summary {
	if db == nil {
		return nil
	}
	ws := db.Windows(0)
	if len(ws) == 0 {
		return nil
	}
	s := &Summary{IntervalNs: db.interval, Windows: db.Stats()}
	last := ws[len(ws)-1]
	covered := float64(last.End-ws[0].Start) / 1e9

	for _, c := range last.Counters {
		var delta int64
		for _, w := range ws {
			for _, cc := range w.Counters {
				if cc.Name == c.Name {
					delta += cc.Delta
					break
				}
			}
		}
		cs := CounterSummary{Name: c.Name, Total: c.Total}
		if covered > 0 {
			cs.RatePerSec = float64(delta) / covered
		}
		s.Counters = append(s.Counters, cs)
	}

	for _, g := range last.Gauges {
		gs := GaugeSummary{Name: g.Name, Last: g.Value}
		first := true
		for _, w := range ws {
			for _, gg := range w.Gauges {
				if gg.Name == g.Name {
					if first || gg.Value < gs.Min {
						gs.Min = gg.Value
					}
					if first || gg.Value > gs.Max {
						gs.Max = gg.Value
					}
					first = false
					break
				}
			}
		}
		s.Gauges = append(s.Gauges, gs)
	}

	for _, h := range last.Histograms {
		hs := HistogramSummary{Name: h.Name, Count: h.CountTotal}
		merged := make([]int64, obs.NumBuckets())
		scratch := make([]int64, obs.NumBuckets())
		for _, w := range ws {
			for _, hh := range w.Histograms {
				if hh.Name != h.Name {
					continue
				}
				for i := range scratch {
					scratch[i] = 0
				}
				for _, b := range hh.Buckets {
					merged[b.Idx] += b.Count
					scratch[b.Idx] = b.Count
				}
				hs.P99PerWindow = append(hs.P99PerWindow, obs.QuantileOf(scratch, 0.99))
				break
			}
		}
		hs.P50 = obs.QuantileOf(merged, 0.50)
		hs.P99 = obs.QuantileOf(merged, 0.99)
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}
