// Package des is a deterministic discrete-event simulator used to model
// container startup on a multi-core node: a virtual clock, an event queue,
// an FCFS core pool, and serially-contended resources (locks). All startup
// latency numbers in the benchmark harness come from this engine, so runs
// are exactly reproducible.
package des

import "time"

// Time is simulated time in nanoseconds since simulation start.
type Time int64

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker preserving schedule order
	fn  func()
}

// before orders events by (at, seq), a total order: no two events share a
// seq, so the pop order never depends on the heap's shape.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// eventHeap is a binary min-heap of events stored by value, so scheduling
// allocates only when the backing array grows.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the earliest event. The vacated slot is zeroed so the heap does
// not keep the fired closure alive.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := l + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Engine drives the simulation.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
}

// NewEngine creates an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+Time(d), fn) }

// Run processes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Step processes a single event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// NextAt returns the scheduled time of the earliest pending event, or false
// when the queue is empty. It lets an external run layer (the gateway's
// real-time bridge) pace Step calls against a wall clock instead of draining
// the queue as fast as Run does.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// CPUPool models n identical cores scheduled FCFS. Work submitted to the
// pool starts on the earliest-free core at or after the submission time.
type CPUPool struct {
	eng    *Engine
	freeAt []Time
	// BusyTime accumulates total core-busy nanoseconds (utilization metric).
	BusyTime int64
}

// NewCPUPool creates a pool of n cores.
func NewCPUPool(eng *Engine, n int) *CPUPool {
	return &CPUPool{eng: eng, freeAt: make([]Time, n)}
}

// Cores returns the core count.
func (p *CPUPool) Cores() int { return len(p.freeAt) }

// Submit enqueues cpuTime of work that becomes ready at the current engine
// time; done runs (at the finish time) when the work completes.
func (p *CPUPool) Submit(cpuTime Duration, done func()) {
	p.SubmitAt(p.eng.now, cpuTime, done)
}

// SubmitAt enqueues work that becomes ready at time ready.
func (p *CPUPool) SubmitAt(ready Time, cpuTime Duration, done func()) {
	// Earliest-free core.
	best := 0
	for i, t := range p.freeAt {
		if t < p.freeAt[best] {
			best = i
		}
	}
	start := ready
	if p.freeAt[best] > start {
		start = p.freeAt[best]
	}
	finish := start + Time(cpuTime)
	p.freeAt[best] = finish
	p.BusyTime += int64(cpuTime)
	p.eng.At(finish, done)
}

// Resource models a serially-held resource (e.g. the containerd task-service
// lock). Acquisitions queue FCFS.
type Resource struct {
	eng    *Engine
	freeAt Time
	// Waits accumulates total queueing delay (contention metric).
	Waits int64
	// Acquisitions counts total acquisitions.
	Acquisitions int64
}

// NewResource creates an uncontended resource.
func NewResource(eng *Engine) *Resource { return &Resource{eng: eng} }

// Acquire schedules done to run after the resource has been held for hold
// nanoseconds, queueing behind earlier holders.
func (r *Resource) Acquire(hold Duration, done func()) {
	start := r.eng.now
	if r.freeAt > start {
		r.Waits += int64(r.freeAt - start)
		start = r.freeAt
	}
	r.freeAt = start + Time(hold)
	r.Acquisitions++
	r.eng.At(r.freeAt, done)
}
