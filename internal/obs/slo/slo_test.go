package slo

import (
	"strings"
	"testing"
	"time"

	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/obs/tsdb"
)

// harness wires a tsdb DB (1s windows), telemetry, and one availability
// objective with a single page rule: 10x burn over a 4s long / 1s short pair.
type harness struct {
	tele  *obs.Telemetry
	db    *tsdb.DB
	eng   *Engine
	good  *obs.Counter
	bad   *obs.Counter
	total *obs.Counter
	now   int64
}

func newHarness(t *testing.T, objs []Objective) *harness {
	t.Helper()
	h := &harness{tele: obs.New(obs.Config{})}
	h.db = tsdb.New(h.tele, tsdb.Config{Interval: time.Second})
	h.total = h.tele.Counter("total")
	h.bad = h.tele.Counter("bad")
	h.db.TrackCounter("total")
	h.db.TrackCounter("bad")
	if objs == nil {
		objs = []Objective{{
			Name: "availability", Kind: Availability, Target: 0.99,
			BadSeries: []string{"bad"}, TotalSeries: "total",
			Rules: []Rule{{Severity: Page, BurnRate: 10, Long: 4 * time.Second, Short: time.Second}},
		}}
	}
	h.eng = New(Config{DB: h.db, Objectives: objs, Telemetry: h.tele})
	if h.eng == nil {
		t.Fatal("engine must construct")
	}
	h.db.Advance(0) // no-op; windows close via step
	return h
}

// step records one second of traffic (good + bad requests) and closes the
// window, evaluating rules.
func (h *harness) step(good, bad int64) {
	h.total.Add(good + bad)
	h.bad.Add(bad)
	h.now += int64(time.Second)
	h.db.Advance(h.now)
	h.eng.Evaluate(h.db.Last())
}

func pageAlert(t *testing.T, st Status) AlertState {
	t.Helper()
	for _, o := range st.Objectives {
		for _, a := range o.Alerts {
			if a.Severity == Page {
				return a
			}
		}
	}
	t.Fatal("no page alert declared")
	return AlertState{}
}

func TestHealthyTrafficStaysSilent(t *testing.T) {
	h := newHarness(t, nil)
	for i := 0; i < 10; i++ {
		h.step(100, 0)
	}
	st := h.eng.Status()
	if a := pageAlert(t, st); a.Firing || a.Transitions != 0 {
		t.Fatalf("healthy traffic fired: %+v", a)
	}
	if st.Objectives[0].BudgetRemaining != 1 {
		t.Fatalf("budget = %v, want full", st.Objectives[0].BudgetRemaining)
	}
	if st.EvaluatedWindows != 10 {
		t.Fatalf("evaluated = %d", st.EvaluatedWindows)
	}
}

func TestBurnFiresAndClears(t *testing.T) {
	h := newHarness(t, nil)
	h.step(100, 0)
	h.step(100, 0)
	// 50% bad against a 1% budget = 50x burn, over both windows.
	h.step(50, 50)
	st := h.eng.Status()
	a := pageAlert(t, st)
	if !a.Firing {
		t.Fatalf("burn must fire within one evaluation window: %+v", a)
	}
	if a.LongBurn < 10 || a.ShortBurn < 10 {
		t.Fatalf("burns = %v/%v, want >= 10", a.LongBurn, a.ShortBurn)
	}
	// Recovery: the short window goes clean immediately; the alert clears as
	// soon as either window drops under the threshold.
	h.step(100, 0)
	for i := 0; pageAlert(t, h.eng.Status()).Firing && i < 10; i++ {
		h.step(100, 0)
	}
	a = pageAlert(t, h.eng.Status())
	if a.Firing {
		t.Fatalf("alert must clear after recovery: %+v", a)
	}
	if a.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2 (fire + clear)", a.Transitions)
	}
}

func TestShortWindowGatesFiring(t *testing.T) {
	h := newHarness(t, nil)
	// A burst followed by recovery: the long window still burns but the short
	// window is clean, so no alert — the multiwindow property.
	h.step(50, 50)
	h.step(100, 0)
	a := pageAlert(t, h.eng.Status())
	if a.Firing {
		t.Fatalf("clean short window must gate firing: %+v", a)
	}
	if a.LongBurn < 10 {
		t.Fatalf("long window should still burn: %+v", a)
	}
}

func TestBudgetAccounting(t *testing.T) {
	h := newHarness(t, nil)
	// 1% budget; 2 bad of 400 total = 0.5% bad = half the budget gone.
	h.step(199, 1)
	h.step(199, 1)
	st := h.eng.Status()
	o := st.Objectives[0]
	if o.BadTotal != 2 || o.EventTotal != 400 {
		t.Fatalf("totals = %d/%d", o.BadTotal, o.EventTotal)
	}
	if o.BudgetRemaining < 0.49 || o.BudgetRemaining > 0.51 {
		t.Fatalf("budget remaining = %v, want ~0.5", o.BudgetRemaining)
	}
	// Exhaust it: budget clamps at 0.
	h.step(0, 100)
	if got := h.eng.Status().Objectives[0].BudgetRemaining; got != 0 {
		t.Fatalf("exhausted budget = %v, want 0", got)
	}
}

func TestLatencyObjective(t *testing.T) {
	tele := obs.New(obs.Config{})
	db := tsdb.New(tele, tsdb.Config{Interval: time.Second})
	lat := tele.Histogram("lat")
	db.TrackHistogram("lat", lat)
	eng := New(Config{DB: db, Telemetry: tele, Objectives: []Objective{{
		Name: "p99-latency", Kind: Latency, Target: 0.9,
		LatencySeries: "lat", LatencyThreshold: time.Millisecond,
		Rules: []Rule{{Severity: Page, BurnRate: 5, Long: 2 * time.Second, Short: time.Second}},
	}}})
	now := int64(0)
	step := func(fast, slow int) {
		for i := 0; i < fast; i++ {
			lat.Record(int64(10 * time.Microsecond))
		}
		for i := 0; i < slow; i++ {
			lat.Record(int64(10 * time.Millisecond))
		}
		now += int64(time.Second)
		db.Advance(now)
		eng.Evaluate(db.Last())
	}
	step(100, 0)
	if eng.Firing("") {
		t.Fatal("fast traffic must not fire")
	}
	// All slow: bad fraction 1.0 against a 0.1 budget = 10x burn.
	step(0, 100)
	if !eng.Firing(Page) {
		t.Fatalf("slow traffic must fire the latency page: %+v", eng.Status())
	}
	st := eng.Status().Objectives[0]
	if st.BadTotal != 100 || st.EventTotal != 200 {
		t.Fatalf("latency totals = %d/%d", st.BadTotal, st.EventTotal)
	}
}

func TestTransitionsEmitSpansAndGauges(t *testing.T) {
	h := newHarness(t, nil)
	h.step(50, 50)
	h.step(100, 0)
	h.step(100, 0)
	h.step(100, 0)
	h.step(100, 0) // long window clean again → cleared
	var fired, cleared bool
	for _, s := range h.tele.Tracer().Spans() {
		switch s.Name {
		case "slo-page-fire":
			fired = true
		case "slo-page-clear":
			cleared = true
		}
	}
	if !fired || !cleared {
		t.Fatalf("transition spans missing: fired=%v cleared=%v", fired, cleared)
	}
	snap := h.tele.Snapshot()
	var sawBurn, sawFiring, sawTrans bool
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "slo_burn_rate_milli{") {
			sawBurn = true
		}
		if strings.HasPrefix(g.Name, "slo_alert_firing{") && g.Value == 0 {
			sawFiring = true
		}
	}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "slo_alert_transitions_total{") && c.Value == 2 {
			sawTrans = true
		}
	}
	if !sawBurn || !sawFiring || !sawTrans {
		t.Fatalf("gauges/counters missing: burn=%v firing=%v trans=%v\n%+v",
			sawBurn, sawFiring, sawTrans, snap)
	}
}

func TestDefaultRulesShape(t *testing.T) {
	rules := DefaultRules(time.Hour)
	if len(rules) != 2 {
		t.Fatalf("rules = %+v", rules)
	}
	if rules[0].Severity != Page || rules[0].BurnRate != 14.4 ||
		rules[0].Long != time.Hour || rules[0].Short != 5*time.Minute {
		t.Fatalf("page rule = %+v", rules[0])
	}
	if rules[1].Severity != Ticket || rules[1].BurnRate != 6 ||
		rules[1].Long != 6*time.Hour || rules[1].Short != 30*time.Minute {
		t.Fatalf("ticket rule = %+v", rules[1])
	}
}

func TestDisabledEngine(t *testing.T) {
	var e *Engine
	e.Evaluate(nil)
	if e.Firing("") || len(e.Status().Objectives) != 0 {
		t.Fatal("nil engine must be inert")
	}
	if New(Config{}) != nil {
		t.Fatal("missing DB must disable")
	}
	if New(Config{DB: tsdb.New(nil, tsdb.Config{Interval: time.Second}),
		Objectives: []Objective{{Name: "x", Target: 1.5}}}) != nil {
		t.Fatal("invalid targets must disable")
	}
}
