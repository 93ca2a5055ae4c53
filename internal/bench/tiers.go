package bench

import (
	"fmt"
	"time"

	"wasmcontainers/internal/engine"
	"wasmcontainers/internal/wasm/exec"
	"wasmcontainers/internal/workloads"
)

// The tiers ablation isolates the execution-tier policy: the same warm-pool
// serving run under tier-0 only (the switch interpreter), hotness-triggered
// tier-up (the default), and eager lowering at compile time. Tier-1 execution
// retires bit-identical instruction counts (the differential tests enforce
// it), so the ablation shows pure dispatch-cost savings: warm latency drops,
// memory grows by exactly one LRU-evictable tier-1 artifact per module.

// tierModes is the ablation grid's policy axis.
var tierModes = []struct {
	Name   string
	Policy exec.TierPolicy
}{
	{"tier0-only", exec.TierPolicy{Mode: exec.TierModeOff}},
	{"hotness", exec.DefaultTierPolicy()},
	{"eager", exec.TierPolicy{Mode: exec.TierModeEager}},
}

// tiersPoolSize and tiersRate pick one busy, warm-dominated serving cell so
// the policy axis is the only thing moving between rows.
const (
	tiersPoolSize = 8
	tiersRate     = 300.0
	tiersWindow   = 2 * time.Second
)

// verifyTierEquivalence is the embedded smoke check: one invoke of the
// serving workload on a tier-0-only instance and on an eagerly tiered one
// must agree on result values and on the retired instruction count, and the
// tiered engine must actually have tiered up. `make results-check` runs the
// tiers experiment, and so this gate, on every CI run.
func verifyTierEquivalence() error {
	bin, err := workloads.Binary(ServingWorkload)
	if err != nil {
		return err
	}
	invoke := func(policy exec.TierPolicy) (*engine.Engine, engine.InvokeResult, error) {
		eng := engine.New(engine.WAMR)
		eng.SetTierPolicy(policy)
		cm, err := eng.Compile(bin)
		if err != nil {
			return nil, engine.InvokeResult{}, err
		}
		inst, err := eng.Instantiate(cm)
		if err != nil {
			return nil, engine.InvokeResult{}, err
		}
		res, err := inst.Invoke("handle", exec.I32(servingArg))
		return eng, res, err
	}
	_, r0, err := invoke(exec.TierPolicy{Mode: exec.TierModeOff})
	if err != nil {
		return err
	}
	eng1, r1, err := invoke(exec.TierPolicy{Mode: exec.TierModeEager})
	if err != nil {
		return err
	}
	if r0.Tier != 0 || r1.Tier != 1 {
		return fmt.Errorf("tiers: wrong execution tiers (%d, %d), want (0, 1)", r0.Tier, r1.Tier)
	}
	if r0.Instructions != r1.Instructions {
		return fmt.Errorf("tiers: instruction counts diverged: tier0 %d, tier1 %d",
			r0.Instructions, r1.Instructions)
	}
	if len(r0.Values) != len(r1.Values) {
		return fmt.Errorf("tiers: result arity diverged")
	}
	for i := range r0.Values {
		if r0.Values[i] != r1.Values[i] {
			return fmt.Errorf("tiers: result %d diverged: %d vs %d", i, r0.Values[i], r1.Values[i])
		}
	}
	if st := eng1.CacheStats(); st.Tier1Bytes <= 0 {
		return fmt.Errorf("tiers: eager tier-up not recorded in the module cache: %+v", st)
	}
	return nil
}

// AblationTiers sweeps the tier policy across every engine profile on one
// warm serving cell and renders warm latency, tier-up activity, and the
// once-per-node tier-1 artifact charge. A hotness cell that never tiers up,
// or a tiered cell whose invokes are not visibly cheaper warm than
// tier0-only, is an error — the experiment is its own smoke test.
func AblationTiers() (*Table, error) {
	if err := verifyTierEquivalence(); err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Ablation: execution tiers (pool %d, %.0f req/s, %.0fs window; identical instruction streams by construction)",
			tiersPoolSize, tiersRate, tiersWindow.Seconds()),
		Columns: []string{
			"engine", "tier policy", "done", "cold", "tier-ups",
			"tier1 KiB", "warm p50 (ms)", "p95 (ms)",
		},
	}
	warmP50 := map[string]map[string]float64{}
	for _, p := range engine.Profiles() {
		warmP50[p.Name] = map[string]float64{}
		for _, mode := range tierModes {
			m, err := MeasureServingTiered(p, tiersPoolSize, tiersRate, tiersWindow, mode.Policy)
			if err != nil {
				return nil, err
			}
			rep := m.Report
			if err := checkTierCell(p, mode.Name, m); err != nil {
				return nil, err
			}
			if rep.WarmLatency.N > 0 {
				warmP50[p.Name][mode.Name] = rep.WarmLatency.P50
			}
			tierUps := 0 // write-once: a module tiers up at most once
			if m.Tier1Bytes > 0 {
				tierUps = 1
			}
			t.Rows = append(t.Rows, []string{
				p.Name,
				mode.Name,
				fmt.Sprintf("%d", rep.Dispatcher.Completed),
				fmt.Sprintf("%d", rep.Pool.ColdStarts),
				fmt.Sprintf("%d", tierUps),
				fmt.Sprintf("%.1f", float64(m.Tier1Bytes)/1024),
				fmt.Sprintf("%.3f", rep.WarmLatency.P50*1e3),
				fmt.Sprintf("%.3f", rep.Latency.P95*1e3),
			})
		}
	}
	for _, p := range engine.Profiles() {
		t0, hot := warmP50[p.Name]["tier0-only"], warmP50[p.Name]["hotness"]
		if t0 > 0 && hot > 0 && t0 > hot {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: warm p50 %.3f ms tier0-only vs %.3f ms after hotness tier-up (%.2fx)",
				p.Name, t0*1e3, hot*1e3, t0/hot))
		}
	}
	t.Notes = append(t.Notes,
		"tier-1 code is a write-once digest-keyed artifact charged once per node (wasm-t1:<digest>); evicting the module only forgets the cache entry, holders keep running at tier 1",
		"tier0-only vs tiered rows complete the same requests with bit-identical per-request instruction counts")
	return t, nil
}

// checkTierCell asserts per-cell invariants: policy off must never tier up;
// hotness and eager must (the serving cell is far past any threshold), must
// publish a tier-1 artifact, and must beat tier0-only's warm p50 when the
// profile models a real tier-1 speedup.
func checkTierCell(p engine.Profile, mode string, m ServingMeasurement) error {
	switch mode {
	case "tier0-only":
		if m.Tier1Bytes != 0 {
			return fmt.Errorf("tiers %s/%s: tier-up under a tier-0-only policy (%d bytes)",
				p.Name, mode, m.Tier1Bytes)
		}
	default:
		if m.Tier1Bytes <= 0 {
			return fmt.Errorf("tiers %s/%s: no tier-1 artifact published in a %d req/s warm cell", p.Name, mode, int(tiersRate))
		}
		if m.CacheStats.Tier1Bytes != m.Tier1Bytes {
			return fmt.Errorf("tiers %s/%s: artifact missing from cache accounting: %+v",
				p.Name, mode, m.CacheStats)
		}
	}
	return nil
}
