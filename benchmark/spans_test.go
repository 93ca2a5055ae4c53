package main

import "testing"

// A synthetic tree: top (100) -> mid (70) -> leaf (30) twice per mid, plus a
// second child of top, side (10). Three ops, durations constant.
func syntheticSpans() []span {
	var spans []span
	add := func(name, layer string, op, parent int, dur int64) int {
		id := len(spans)
		start := int64(id) * 1000
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, StartNs: start, EndNs: start + dur})
		return id
	}
	for op := 0; op < 3; op++ {
		top := add("top", "a", op, -1, 100)
		mid := add("mid", "b", op, top, 70)
		add("leaf", "c", op, mid, 30)
		add("leaf", "c", op, mid, 30)
		add("side", "b", op, top, 10)
	}
	return spans
}

func TestSelfTimeSubtractsTheRungsBelow(t *testing.T) {
	stats := selfTimes(syntheticSpans())
	for name, want := range map[string]float64{
		"top":  100 - 70 - 10,
		"mid":  70 - 2*30, // leaf runs twice per mid
		"leaf": 30,
		"side": 10,
	} {
		if got := stats[name].SelfNs; got != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if stats["leaf"].Parent != "mid" || stats["leaf"].Count != 6 || stats["top"].Parent != "" {
		t.Errorf("leaf %+v top %+v", stats["leaf"], stats["top"])
	}
	// Self times telescope: per layer they sum to the top rung's median.
	layers := layerSelf(stats)
	if layers["a"] != 20 || layers["b"] != 20 || layers["c"] != 30 {
		t.Errorf("layer self = %v", layers)
	}
	var sum float64
	for _, v := range layers {
		sum += v
	}
	if want := stats["top"].MedianNs - 30; sum != want { // one leaf's 30 is counted once, used twice
		t.Errorf("layer self times sum to %v, want %v", sum, want)
	}
	sh := shares(stats, "top")
	if sh["a"] != 20 || sh["c"] != 30 {
		t.Errorf("shares = %v", sh)
	}
}

func TestClimbRunsEveryRungOnTheSameOps(t *testing.T) {
	var seen [3][]int
	var order []string // of the last block: what ran, in sequence
	blocks := 0
	rungs := []rung{
		{name: "top", layer: "a", parent: -1,
			reference: func(int) { order = append(order, "ref") },
			run:       func(k int) { seen[0] = append(seen[0], k); order = append(order, "top") }},
		{name: "mid", layer: "b", parent: 0, times: 2, run: func(k int) { seen[1] = append(seen[1], k); order = append(order, "mid") }},
		{name: "leaf", layer: "c", parent: 1, run: func(k int) { seen[2] = append(seen[2], k); order = append(order, "leaf") }},
	}
	rec, n := climb(0, rungs, func(base, n int) { blocks++; order = nil }, func() bool { return false })
	if blocks != 2 { // the warm-up block and the one recorded block
		t.Fatalf("newBlock ran %d times, want 2", blocks)
	}
	if len(seen[0]) != 16+n || len(seen[1]) != 2*(16+n) || len(seen[2]) != 16+n {
		t.Fatalf("rungs ran %d/%d/%d times for %d recorded ops", len(seen[0]), len(seen[1]), len(seen[2]), n)
	}
	if len(rec.spans) != 4*n || len(rec.untraced) != n {
		t.Fatalf("%d spans and %d untraced ops for %d ops, want %d and %d", len(rec.spans), len(rec.untraced), n, 4*n, n)
	}
	// The top rung's block first, each op after its untraced reference; then
	// the rungs below, one op through all of them before the next op.
	var want []string
	for k := 0; k < n; k++ {
		want = append(want, "ref", "top")
	}
	for k := 0; k < n; k++ {
		want = append(want, "mid", "mid", "leaf")
	}
	if len(order) != len(want) {
		t.Fatalf("block ran %d steps, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("step %d of the block is %s, want %s", i, order[i], want[i])
		}
	}
	for _, s := range rec.spans {
		switch {
		case s.Name == "top" && s.Parent != -1:
			t.Fatalf("top span has parent %d", s.Parent)
		case s.Name != "top":
			p := rec.spans[s.Parent]
			if p.Op != s.Op || (s.Name == "mid" && p.Name != "top") || (s.Name == "leaf" && p.Name != "mid") {
				t.Fatalf("span %+v has parent %+v", s, p)
			}
		}
	}
}
