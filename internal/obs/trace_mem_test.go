package obs

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// tracerSink keeps a measured NewTracer result on the heap.
var tracerSink *Tracer

// allocatedBytes is what one call of f allocates, averaged over runs: bytes
// the heap handed out, whether or not they stay live.
func allocatedBytes(runs int, f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return (ms.TotalAlloc - before) / uint64(runs)
}

// logBytes is what the tracer's chunks hold: encoded bytes, and the
// capacity of every chunk buffer it keeps, the spare included.
func logBytes(tr *Tracer) (used, held int) {
	for _, c := range tr.chunks {
		used += len(c.buf)
		held += cap(c.buf)
	}
	return used, held + cap(tr.spare)
}

// warmRequest emits the three spans one warm request records after its
// queue wait, with the values a warm-steady gateway gives them: pool
// acquire, guest invoke and copy-on-write reset.
func warmRequest(tr *Tracer, tid int64) {
	now := tid * 599648
	tr.Span("acquire", "serve", tid, now, now+12000, I64("cold", 0))
	tr.Span("invoke", "serve", tid, now+12000, now+599648,
		I64("cold", 0), I64("instructions", 9182), I64("error", 0))
	tr.Span("reset", "pool", tid, now+599648, now+599648,
		I64("dirty_pages", 1), I64("private_bytes", 65536))
}

// TestEncodedSpanSizePin keeps request spans small in the log: within a
// chunk, the acquire, invoke and reset spans of a warm request take at most
// 24 bytes each (11, 22 and 17 today).
func TestEncodedSpanSizePin(t *testing.T) {
	tr := NewTracer(DefaultTraceCapacity, func() int64 { return 0 })
	for tid := int64(1); tid <= 1000; tid++ {
		warmRequest(tr, tid)
	}
	spans := tr.Spans()
	for ci, c := range tr.chunks {
		r := decoder{buf: c.buf, strs: tr.strs}
		for first := true; len(r.buf) > 0; first = false {
			var s Span
			var arena []Attr
			before := len(r.buf)
			r.next(&s, &arena)
			// A chunk's first span carries absolute values, not deltas.
			if size := before - len(r.buf); !first && size > 24 {
				t.Fatalf("chunk %d: %s span takes %d B, want ≤ 24", ci, s.Name, size)
			}
		}
	}
	used, _ := logBytes(tr)
	t.Logf("%d spans in %d B, %.1f B per span", len(spans), used, float64(used)/float64(len(spans)))
}

// TestTracerPaysPerSpanKept pins the log's memory to the spans it holds:
// nothing before the first span, at most 24 bytes a request span plus one
// chunk while filling, and once full no more than capacity spans' worth
// plus two chunks (a partly evicted head chunk and a spare).
func TestTracerPaysPerSpanKept(t *testing.T) {
	// An idle tracer retains at most what NewTracer allocates. Counting
	// those bytes does not move with collector timing or machine load, as a
	// live-heap delta of a few KiB does.
	if got := allocatedBytes(100, func() {
		tracerSink = NewTracer(DefaultTraceCapacity, func() int64 { return 0 })
	}); got >= 4<<10 {
		t.Fatalf("NewTracer allocates %d B, want < 4 KiB", got)
	}
	before := liveHeap()
	tr := NewTracer(DefaultTraceCapacity, func() int64 { return 0 })

	const requests = 1000
	for tid := int64(1); tid <= requests; tid++ {
		warmRequest(tr, tid)
	}
	const n = 3 * requests
	if _, held := logBytes(tr); held > n*24+chunkSize {
		t.Fatalf("log keeps %d B of chunks for %d spans, want ≤ %d", held, n, n*24+chunkSize)
	}
	if got := int64(liveHeap()) - int64(before); got > n*24+chunkSize {
		t.Fatalf("tracer with %d spans retains %d B, want ≤ %d", n, got, n*24+chunkSize)
	}
	runtime.KeepAlive(tr)

	small := NewTracer(1000, func() int64 { return 0 })
	for tid := int64(1); tid <= 5000; tid++ {
		warmRequest(small, tid)
		if _, held := logBytes(small); held > 1000*24+2*chunkSize {
			t.Fatalf("full log keeps %d B of chunks, want ≤ %d", held, 1000*24+2*chunkSize)
		}
	}
	if len(small.Spans()) != 1000 || small.Dropped() != 14000 {
		t.Fatalf("retained %d, dropped %d; want 1000/14000", len(small.Spans()), small.Dropped())
	}
}

// TestSpanEmissionAllocatesNothing pins the request-path cost: an enabled
// span whose strings are already interned, committed into a full log,
// allocates nothing — also when it starts a chunk, which reuses the buffer
// of the chunk the log evicted last.
func TestSpanEmissionAllocatesNothing(t *testing.T) {
	tr := NewTracer(64, func() int64 { return 0 })
	emit := func() {
		tr.Span("invoke", "serve", 7, 10, 20,
			I64("cold", 0), I64("instructions", 9000), Str("engine", "wamr"))
	}
	for i := 0; i < 1000; i++ {
		emit()
	}
	if got := testing.AllocsPerRun(1000, emit); got != 0 {
		t.Fatalf("enabled span allocates %.1f times, want 0", got)
	}
	// AllocsPerRun rounds down per run: count 10 000 spans, a few dozen
	// chunks, as one run.
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			emit()
		}
	}); got != 0 {
		t.Fatalf("10 000 enabled spans allocate %.0f times, want 0", got)
	}
}

// TestInternTableBoundRoundTrips floods the tracer with distinct string
// values: the intern table stops at its bound, and every retained span —
// interned or verbatim, with 0 to 5 attributes — comes back exactly.
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

// TestLogEvictsExactlyAcrossChunks fills a log whose capacity is not a
// multiple of the spans a chunk holds, so the eviction point walks through
// the middle of chunks, and checks at every chunk change (and every 97th
// span) that Spans is exactly the newest capacity spans and Dropped the
// rest.
func TestLogEvictsExactlyAcrossChunks(t *testing.T) {
	span := func(i int) Span {
		return Span{Name: "s", Cat: "c", TID: 7, Start: int64(i), Dur: 3,
			Attrs: []Attr{I64("i", int64(i%64))}}
	}
	probe := NewTracer(DefaultTraceCapacity, func() int64 { return 0 })
	for i := 0; len(probe.chunks) < 2; i++ {
		s := span(i)
		probe.Span(s.Name, s.Cat, s.TID, s.Start, s.Start+s.Dur, s.Attrs...)
	}
	perChunk := probe.chunks[0].n
	capacity := 2*perChunk + perChunk/2 + 1

	tr := NewTracer(capacity, func() int64 { return 0 })
	var want []Span
	chunks, midEviction := 0, false
	for i := 0; i < 6*capacity; i++ {
		s := span(i)
		tr.Span(s.Name, s.Cat, s.TID, s.Start, s.Start+s.Dur, s.Attrs...)
		want = append(want, s)
		if len(tr.chunks) == chunks && i%97 != 0 {
			continue
		}
		chunks = len(tr.chunks)
		midEviction = midEviction || (tr.skip > 0 && chunks > 1)
		keep := want[max(0, len(want)-capacity):]
		if got := tr.Spans(); !reflect.DeepEqual(got, keep) {
			t.Fatalf("after %d spans (capacity %d, %d per chunk, skip %d): retained %d spans, want the last %d",
				i+1, capacity, perChunk, tr.skip, len(got), len(keep))
		}
		if got, want := tr.Dropped(), int64(len(want)-len(keep)); got != want {
			t.Fatalf("after %d spans: Dropped = %d, want %d", i+1, got, want)
		}
	}
	if !midEviction {
		t.Fatal("no check fell on a partly evicted head chunk")
	}
}

// fullTable is an intern table at its bound, shared by fuzz iterations: a
// tracer never writes to a full table.
var fullTable = sync.OnceValues(func() ([]string, map[string]uint32) {
	strs, ids := []string{""}, map[string]uint32{}
	for len(strs) < internCap {
		ids[strconv.Itoa(len(strs))] = uint32(len(strs))
		strs = append(strs, strconv.Itoa(len(strs)))
	}
	return strs, ids
})

// fuzzInput hands out the fuzzer's bytes as span fields; past the end it
// reads zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// i64 reads a small signed value, or a full 8-byte one, so deltas come out
// small, negative and wrapping.
func (in *fuzzInput) i64() int64 {
	switch tag := in.byte(); tag % 3 {
	case 0:
		return int64(int8(in.byte()))
	case 1:
		return int64(int16(uint16(in.byte()) | uint16(in.byte())<<8))
	default:
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(in.byte()) << (8 * i)
		}
		return int64(v)
	}
}

// str reads the empty string, a string of the shared vocabulary, a few
// raw input bytes, or a string long enough to overflow a chunk.
func (in *fuzzInput) str() string {
	tag := in.byte()
	switch tag % 8 {
	case 0:
		return ""
	case 1, 2, 3:
		return []string{"invoke", "serve", "cold", "7", "42", "engine", "wamr", "4095"}[tag>>3%8]
	case 7:
		return strings.Repeat("x", 3000+int(tag))
	default:
		n := min(int(tag>>3), len(*in))
		s := string((*in)[:n])
		*in = (*in)[n:]
		return s
	}
}

// FuzzTracerLog runs random spans — 0 to 5 attributes, pid, tid and start
// jumping both ways, interned and verbatim strings, spans larger than a
// chunk — through a tracer of random capacity, and compares Spans and
// Dropped with a slice that keeps every span.
func FuzzTracerLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 9, 1, 2, 2, 5, 1, 200, 8, 255, 255, 255, 255, 255, 255, 255, 127})
	f.Add([]byte{1, 0, 1, 40, 7, 15, 0, 5, 0, 251, 0, 7, 2, 9, 9, 9, 9, 9, 9, 9, 9, 17, 14})
	f.Add([]byte("\x05\x00\x01\x20a verbatim name\x21\x10\x00\x03\x00\x80\x28"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		capacity := 1 + (int(in.byte())|int(in.byte())<<8)%600
		tr := NewTracer(capacity, func() int64 { return 0 })
		if in.byte()&1 == 1 {
			tr.strs, tr.ids = fullTable()
		}
		var want []Span
		var pid int64
		for len(in) > 0 {
			op := in.byte()
			if op%8 == 0 {
				pid = in.i64()
				tr.SetPID(pid)
				continue
			}
			s := Span{Name: in.str(), Cat: in.str(), PID: pid, TID: in.i64(), Start: in.i64()}
			end := in.i64()
			s.Dur = max(end-s.Start, 0)
			for k := int(op>>3) % 6; k > 0; k-- {
				s.Attrs = append(s.Attrs, Attr{Key: in.str(), Str: in.str(), Val: in.i64()})
			}
			tr.Span(s.Name, s.Cat, s.TID, s.Start, end, s.Attrs...)
			want = append(want, s)
		}
		keep := want[max(0, len(want)-capacity):]
		if got := tr.Spans(); len(got)+len(keep) > 0 && !reflect.DeepEqual(got, keep) {
			t.Fatalf("capacity %d, %d spans: retained %+v, want %+v", capacity, len(want), got, keep)
		}
		if got := tr.Dropped(); got != int64(len(want)-len(keep)) {
			t.Fatalf("Dropped = %d, want %d", got, len(want)-len(keep))
		}
	})
}
