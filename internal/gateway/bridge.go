// Package gateway turns the simulated cluster into a network service: a
// net/http front door (cmd/continuumd) serving function invokes, a minimal
// Docker-API-shaped control surface over the simulated Kubernetes cluster,
// and live Prometheus scraping of the existing telemetry registry.
//
// Its core is the real-time DES bridge. des.Engine and serve.Dispatcher are
// single-threaded by contract — one goroutine drives the virtual clock — but
// an HTTP server is N goroutines by construction. The Bridge reconciles the
// two: handler goroutines submit over a bounded channel, one event-loop
// goroutine injects submissions into the DES at the virtual time mapped from
// the wall clock, paces pending events against real time (configurable
// dilation), and delivers each serve.RequestResult back to the blocked
// handler. The bounded channel is the gateway's first backpressure stage:
// when the loop cannot keep up, SubmitRouted fails fast with ErrBridgeBusy
// instead of queueing unboundedly, and the HTTP layer maps that to 503 +
// Retry-After.
package gateway

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/serve"
)

// Bridge submission errors. Both are refusals issued before the dispatcher
// ever sees the request, so they do not appear in serve.DispatcherStats.
var (
	// ErrBridgeBusy means the submission channel was full: the event loop is
	// saturated and the caller should back off and retry.
	ErrBridgeBusy = errors.New("gateway: bridge submission queue full")
	// ErrBridgeDraining means Drain has begun: the bridge is flushing
	// in-flight work and accepts no new submissions.
	ErrBridgeDraining = errors.New("gateway: bridge draining")
)

// BridgeConfig shapes the real-time run layer.
type BridgeConfig struct {
	// Dilation maps virtual to wall time: an event at virtual time T fires
	// no earlier than T*Dilation wall nanoseconds after Start. 1.0 serves in
	// real time (a 3 ms simulated invoke takes ~3 ms of wall clock); 2.0 is
	// slow motion; 0 disables pacing entirely — events run as fast as the
	// loop can step them, which is the deterministic mode the tests and the
	// bench harness use.
	Dilation float64
	// SubmitBuffer bounds the submission channel; 0 means 256. A full buffer
	// fails SubmitRouted with ErrBridgeBusy.
	SubmitBuffer int
	// Sampler, when set, is called on the loop goroutine with the virtual
	// time about to become current — immediately before each event steps, so
	// a time-series window ending at or before that instant closes having
	// seen exactly the events that preceded it. At Dilation 0 this is the
	// only trigger, which is what makes the sampled series deterministic; at
	// Dilation > 0 a wall ticker additionally reports the wall-mapped virtual
	// time so an idle server still ages its windows.
	Sampler func(simNowNs int64)
	// SamplerTick is the wall interval of the idle ticker; 0 means 250ms.
	// Used only when Dilation > 0 and Sampler is set.
	SamplerTick time.Duration
}

// submission is one handler-goroutine request waiting to enter the DES,
// or (when run is set) a closure to execute on the loop goroutine.
type submission struct {
	req *request
	run func() // non-nil: a Do closure, not a request
}

// request is one routed submission. Requests are pooled: the DES event that
// submits to the router (enter) and the callback that hands the result back
// (done) are bound once, when the pool builds the request, so a submission
// allocates neither closures nor a channel. Ownership is the one rule: the
// submitter re-pools a request only after receiving its result, or when the
// loop never saw it (ErrBridgeBusy); a submitter whose context ends abandons
// it to the collector, because the loop still owns it.
type request struct {
	b      *Bridge
	rt     *serve.Router
	key    string
	tid    int64
	result chan serve.RequestResult // buffered(1): the loop never blocks
	enter  func()
	done   func(serve.RequestResult)
}

var requestPool = sync.Pool{New: func() any {
	r := &request{result: make(chan serve.RequestResult, 1)}
	r.enter = func() {
		if err := r.rt.Submit(r.key, r.tid, r.done); err != nil {
			r.done(serve.RequestResult{Err: err})
		}
	}
	r.done = func(res serve.RequestResult) {
		// Read b first: once the result is received, r may be reused.
		b := r.b
		r.result <- res
		b.settle()
	}
	return r
}}

// Bridge runs a des.Engine on one goroutine and carries requests between
// concurrent submitters and the single-threaded dispatcher world.
type Bridge struct {
	eng *des.Engine
	cfg BridgeConfig

	subCh  chan submission
	stopCh chan struct{}
	doneCh chan struct{} // closed when the loop exits

	// simNow mirrors the engine clock for observers; the engine itself is
	// touched only by the loop goroutine once Start has run.
	simNow atomic.Int64

	// mu guards admission state: pending in-flight submissions and the
	// draining flag. idleCh closes when draining and pending hits zero.
	mu       sync.Mutex
	pending  int
	draining bool
	idleCh   chan struct{}
	started  bool
}

// NewBridge wraps eng. The engine must not be driven by anyone else after
// Start: the bridge's loop goroutine becomes the one goroutine of the DES
// threading contract.
func NewBridge(eng *des.Engine, cfg BridgeConfig) *Bridge {
	if cfg.SubmitBuffer <= 0 {
		cfg.SubmitBuffer = 256
	}
	return &Bridge{
		eng:    eng,
		cfg:    cfg,
		subCh:  make(chan submission, cfg.SubmitBuffer),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		idleCh: make(chan struct{}),
	}
}

// Start launches the event loop. Everything scheduled on the engine before
// Start (pool pre-instantiation happens synchronously, so typically nothing)
// runs under the loop's pacing.
func (b *Bridge) Start() {
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.mu.Unlock()
	go b.loop()
}

// SimNow is the current virtual time as of the loop's last step. Safe from
// any goroutine.
func (b *Bridge) SimNow() des.Time { return des.Time(b.simNow.Load()) }

// Draining reports whether Drain has begun.
func (b *Bridge) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// InFlight is the number of submissions accepted but not yet answered.
func (b *Bridge) InFlight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// SubmitRouted carries one request into the DES world through a
// serve.Router shard and blocks until its RequestResult comes back (or ctx
// ends; the request still runs to completion inside the simulation, its
// result is discarded). The request joins the shard's pending batch, so
// submissions injected within one DES event — the greedy channel drain below
// makes concurrent arrivals land that way — are admitted together by one
// batched pass. The returned error is only a bridge-level refusal
// (ErrBridgeBusy, ErrBridgeDraining) or ctx's error — dispatcher-level
// outcomes, including rejections, arrive inside the RequestResult, and a key
// that matches no shard comes back as a refused RequestResult carrying
// serve.ErrUnknownModule.
func (b *Bridge) SubmitRouted(ctx context.Context, rt *serve.Router, key string, tid int64) (serve.RequestResult, error) {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return serve.RequestResult{}, ErrBridgeDraining
	}
	b.pending++
	b.mu.Unlock()

	req := requestPool.Get().(*request)
	req.b, req.rt, req.key, req.tid = b, rt, key, tid
	select {
	case b.subCh <- submission{req: req}:
	default:
		b.settle()
		requestPool.Put(req)
		return serve.RequestResult{}, ErrBridgeBusy
	}
	select {
	case r := <-req.result:
		requestPool.Put(req)
		return r, nil
	case <-ctx.Done():
		return serve.RequestResult{}, ctx.Err()
	}
}

// Do runs fn on the loop goroutine, serialized against event stepping, and
// waits for it to finish. It is how concurrent observers (the introspection
// and container endpoints) read or mutate simulation-side state without
// violating the DES threading contract. Requires Start; after the loop has
// exited, fn runs directly in the caller — the loop goroutine is gone, so
// the caller is the only one left touching the engine. Unlike SubmitRouted, Do
// bypasses the draining gate: introspection stays available during a drain.
func (b *Bridge) Do(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	sub := submission{run: func() { fn(); close(done) }}
	select {
	case b.subCh <- sub:
	case <-b.doneCh:
		fn()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-b.doneCh:
		// The loop exited with our closure possibly still queued. It is gone
		// for good (the loop never drains subCh after stopping), and no other
		// goroutine touches the engine now, so run it here — unless the loop
		// got to it just before exiting.
		select {
		case <-done:
		default:
			fn()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// settle retires one accepted submission and releases Drain when the last
// one leaves.
func (b *Bridge) settle() {
	b.mu.Lock()
	b.pending--
	if b.pending == 0 && b.draining {
		select {
		case <-b.idleCh: // already closed
		default:
			close(b.idleCh)
		}
	}
	b.mu.Unlock()
}

// Drain gracefully shuts the bridge down: new submissions are refused with
// ErrBridgeDraining, accepted ones flush to their final results, then the
// loop stops. Returns ctx's error if the flush outlives it (the loop keeps
// running in that case so late results still settle).
func (b *Bridge) Drain(ctx context.Context) error {
	b.mu.Lock()
	wasDraining := b.draining
	b.draining = true
	idle := b.pending == 0
	if idle && !wasDraining {
		select {
		case <-b.idleCh:
		default:
			close(b.idleCh)
		}
	}
	b.mu.Unlock()
	select {
	case <-b.idleCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	b.Stop()
	return nil
}

// Stop halts the loop without waiting for in-flight work (tests, or a drain
// that ran out of patience). Idempotent.
func (b *Bridge) Stop() {
	select {
	case <-b.stopCh:
	default:
		close(b.stopCh)
	}
	b.mu.Lock()
	started := b.started
	b.mu.Unlock()
	if started {
		<-b.doneCh
	}
}

// loop is the one goroutine of the DES threading contract: it alternates
// between stepping due events (paced against the wall clock when Dilation >
// 0) and injecting submissions at the virtual time mapped from their wall
// arrival.
func (b *Bridge) loop() {
	defer close(b.doneCh)
	wallStart := time.Now()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// Idle sampling ticker: with pacing on, windows must close even when no
	// events are due. At dilation 0 there is no wall→virtual mapping, so the
	// pre-step Sampler calls below are the sole (and deterministic) trigger.
	var tickerC <-chan time.Time
	if b.cfg.Sampler != nil && b.cfg.Dilation > 0 {
		tick := b.cfg.SamplerTick
		if tick <= 0 {
			tick = 250 * time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		tickerC = ticker.C
	}
	for {
		// Step every due event; arm the timer for the earliest future one.
		var timerC <-chan time.Time
		if wait := b.stepDue(wallStart); wait > 0 {
			timer.Reset(wait)
			timerC = timer.C
		}
		select {
		case sub := <-b.subCh:
			b.inject(sub, wallStart)
			// Greedy drain: requests waiting behind the first are injected
			// before any is stepped (a Do closure among them steps those
			// ahead of it), so a concurrent burst enters the DES at one
			// virtual instant (exactly so at dilation 0) and the router
			// batches it per shard. Bounded so a hot submitter cannot starve
			// pacing and stop.
		more:
			for i := 0; i < maxInjectBurst; i++ {
				select {
				case sub := <-b.subCh:
					b.inject(sub, wallStart)
				default:
					break more
				}
			}
		case <-timerC:
			timerC = nil
		case <-tickerC:
			// Age windows to the wall-mapped virtual instant; the engine's own
			// clock only moves when events step, but wall time keeps flowing.
			if t := des.Time(float64(time.Since(wallStart)) / b.cfg.Dilation); t > b.eng.Now() {
				b.cfg.Sampler(int64(t))
			}
		case <-b.stopCh:
			return
		}
		// A dead timer fire left in the channel would make the next select
		// spin once; drain it before re-arming.
		if timerC != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// maxInjectBurst bounds the loop's greedy channel drain per select cycle.
const maxInjectBurst = 512

// stepDue steps every due event and returns the wall wait until the
// earliest one not yet due, 0 when none is pending.
func (b *Bridge) stepDue(wallStart time.Time) time.Duration {
	for {
		t, ok := b.eng.NextAt()
		if !ok {
			return 0
		}
		if b.cfg.Dilation > 0 {
			due := wallStart.Add(time.Duration(float64(t) * b.cfg.Dilation))
			if wait := time.Until(due); wait > 0 {
				return wait
			}
		}
		if b.cfg.Sampler != nil {
			b.cfg.Sampler(int64(t))
		}
		b.eng.Step()
		b.simNow.Store(int64(b.eng.Now()))
	}
}

// inject schedules one submission into the DES at the virtual instant
// mapped from the wall clock (clamped forward to the engine's current time —
// virtual time never runs backwards). At Dilation 0 there is no wall
// mapping: the request enters at the engine's current time, which is what
// makes a sequential request script deterministic.
func (b *Bridge) inject(sub submission, wallStart time.Time) {
	if sub.run != nil {
		// A Do closure: run between events, not as one, once every due
		// event — those of submissions the greedy drain injected ahead of
		// it too — has stepped, so it sees the current virtual time.
		b.stepDue(wallStart)
		sub.run()
		return
	}
	at := b.eng.Now()
	if b.cfg.Dilation > 0 {
		if t := des.Time(float64(time.Since(wallStart)) / b.cfg.Dilation); t > at {
			at = t
		}
	}
	b.eng.At(at, sub.req.enter)
}
