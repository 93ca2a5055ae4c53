package obs

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRecordSizePin keeps the ring slot compact: a full default ring is
// capacity × this size.
func TestRecordSizePin(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 112 {
		t.Fatalf("record is %d B, want ≤ 112", got)
	}
}

// TestTracerPaysPerSpanKept pins the ring's memory to the spans it holds:
// nothing before the first span, about one record per span while filling,
// and never more than capacity records once full.
func TestTracerPaysPerSpanKept(t *testing.T) {
	recSize := int(unsafe.Sizeof(record{}))
	before := liveHeap()
	tr := NewTracer(DefaultTraceCapacity, func() int64 { return 0 })
	if got := int64(liveHeap()) - int64(before); got >= 4<<10 {
		t.Fatalf("idle tracer retains %d B, want < 4 KiB", got)
	}
	runtime.KeepAlive(tr)

	const n = 1000
	for i := 0; i < n; i++ {
		tr.Span("invoke", "serve", int64(i), 0, 1, I64("cold", 0), I64("instructions", int64(i)))
	}
	if c := cap(tr.ring); c < n || c > n*5/4 {
		t.Fatalf("ring backing holds %d records after %d spans, want within [n, 1.25n]", c, n)
	}
	if got := int64(liveHeap()) - int64(before); got > int64(n*5/4*recSize+8<<10) {
		t.Fatalf("tracer with %d spans retains %d B, want ≈ %d", n, got, n*recSize)
	}

	small := NewTracer(1000, func() int64 { return 0 })
	for i := 0; i < 5000; i++ {
		small.Span("invoke", "serve", int64(i), 0, 1)
		if cap(small.ring) > 1000 {
			t.Fatalf("ring backing grew to %d records past its capacity 1000", cap(small.ring))
		}
	}
	if len(small.Spans()) != 1000 || small.Dropped() != 4000 {
		t.Fatalf("retained %d, dropped %d; want 1000/4000", len(small.Spans()), small.Dropped())
	}
}

// TestSpanEmissionAllocatesNothing pins the request-path cost: an enabled
// span with up to inlineAttrs attributes whose strings are already interned,
// committed into a full ring, allocates nothing.
func TestSpanEmissionAllocatesNothing(t *testing.T) {
	tr := NewTracer(64, func() int64 { return 0 })
	emit := func() {
		tr.Span("invoke", "serve", 7, 10, 20,
			I64("cold", 0), I64("instructions", 9000), Str("engine", "wamr"))
	}
	for i := 0; i < 64; i++ {
		emit()
	}
	if got := testing.AllocsPerRun(1000, emit); got != 0 {
		t.Fatalf("enabled span allocates %.1f times, want 0", got)
	}
}

// TestInternTableBoundRoundTrips floods the tracer with distinct string
// values: the intern table stops at its bound, and every retained span —
// packed or spilled, with 0 to 5 attributes — comes back exactly.
func TestInternTableBoundRoundTrips(t *testing.T) {
	const n = 100000
	tr := NewTracer(n, func() int64 { return 0 })
	tr.SetPID(2)
	var want []Span
	for i := 0; i < n; i++ {
		s := Span{Name: fmt.Sprintf("span-%d", i%7), Cat: "c", PID: 2, TID: int64(i), Start: int64(i), Dur: 1}
		for k := 0; k < i%6; k++ {
			s.Attrs = append(s.Attrs, Attr{Key: fmt.Sprintf("k%d", k), Val: int64(i), Str: fmt.Sprintf("v-%d-%d", i, k)})
		}
		tr.Span(s.Name, s.Cat, s.TID, s.Start, s.Start+s.Dur, s.Attrs...)
		want = append(want, s)
	}
	if len(tr.strs) != internCap || len(tr.ids) != internCap-1 {
		t.Fatalf("intern table holds %d strings (%d indexed), want its bound %d", len(tr.strs), len(tr.ids), internCap)
	}
	if got := tr.Spans(); !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("retained %d spans, want %d", len(got), len(want))
	}
}
