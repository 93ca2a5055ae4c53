package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wasmcontainers/internal/des"
	"wasmcontainers/internal/obs"
	"wasmcontainers/internal/wasm/exec"
)

// AdmissionPolicy decides what happens to a request that arrives while the
// dispatcher is at its concurrency limit.
type AdmissionPolicy int

const (
	// PolicyReject turns away over-limit requests immediately (the HTTP 503
	// of a real gateway).
	PolicyReject AdmissionPolicy = iota
	// PolicyQueue parks over-limit requests in a bounded FIFO queue; they
	// are rejected only when the queue is full, and expire if they wait past
	// QueueDeadline.
	PolicyQueue
)

// String names the policy for experiment tables.
func (p AdmissionPolicy) String() string {
	if p == PolicyQueue {
		return "queue"
	}
	return "reject"
}

// retryBackoff is the delay before a request's first retry.
const retryBackoff = time.Millisecond

// ErrRequestTimeout marks a request failed because its retry budget ran past
// DispatcherConfig.RequestTimeout; the wrapped cause is the last attempt's
// error. Detect it with errors.Is.
var ErrRequestTimeout = errors.New("serve: request timeout exceeded")

// Rejection and expiry reasons. Refused requests (RequestResult.Admitted ==
// false) carry one of these in RequestResult.Err so network front ends can
// map each admission outcome to a distinct protocol error (HTTP status,
// Retry-After hint) instead of a bare refusal. All are detectable with
// errors.Is.
var (
	// ErrConcurrencyLimit rejects an over-limit request under PolicyReject.
	ErrConcurrencyLimit = errors.New("serve: concurrency limit reached")
	// ErrQueueFull rejects a request under PolicyQueue when the wait queue
	// is at QueueDepth.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrQueueExpired drops a queued request that waited past QueueDeadline.
	ErrQueueExpired = errors.New("serve: queue deadline exceeded")
	// ErrDraining rejects a request submitted after SetDraining(true): the
	// dispatcher is flushing in-flight work ahead of shutdown.
	ErrDraining = errors.New("serve: dispatcher draining")
)

// DispatcherConfig shapes one dispatcher.
type DispatcherConfig struct {
	// MaxConcurrency bounds requests in flight. 0 means 1.
	MaxConcurrency int
	// QueueDepth bounds the wait queue under PolicyQueue.
	QueueDepth int
	// Policy selects the over-limit behaviour.
	Policy AdmissionPolicy
	// QueueDeadline expires queued requests that wait longer than this in
	// simulated time; 0 means no deadline. Expiry is lazy but admission-safe:
	// dead queue heads are dropped both when capacity frees and before the
	// depth check at admission, so they never cause spurious rejections.
	QueueDeadline time.Duration
	// Export is the guest function every request invokes.
	Export string
	// Arg is the argument passed to Export.
	Arg int32

	// MaxRetries is how many times a failed attempt (cold-start
	// instantiation failure or guest invoke error) is retried before the
	// request is Failed. 0 disables retries. A retrying request keeps its
	// concurrency slot through the backoff, like a held connection. The
	// first retry waits retryBackoff, each later one twice the last; backoff
	// is simulated time, scheduled via des.Engine.After, so retried runs stay
	// deterministic.
	MaxRetries int
	// RetryBackoffCap caps the exponential backoff; 0 means uncapped.
	RetryBackoffCap time.Duration
	// RequestTimeout bounds one request's in-dispatcher lifetime from its
	// first attempt across all retries: when the next backoff would end past
	// the deadline the request fails with ErrRequestTimeout instead of
	// retrying. 0 disables. (Queue wait is bounded separately by
	// QueueDeadline.)
	RequestTimeout time.Duration
}

// DispatcherStats counts request outcomes. The admission identity
// Submitted == Completed + Rejected + Expired + Failed holds exactly once a
// run has drained (every submitted request reaches one terminal counter).
type DispatcherStats struct {
	// Submitted counts all requests offered to the dispatcher.
	Submitted int64
	// Completed counts requests that ran to completion.
	Completed int64
	// Rejected counts requests turned away at admission: limit reached under
	// PolicyReject, queue full under PolicyQueue, or draining.
	Rejected int64
	// Expired counts queued requests dropped — at dispatch or admission
	// time — because they waited past QueueDeadline.
	Expired int64
	// Failed counts requests whose every attempt errored (including
	// timeouts); each failed request also consumed the simulated time its
	// attempts occupied a concurrency slot.
	Failed int64

	// Retries counts retry attempts scheduled after failed attempts.
	Retries int64
	// TimedOut counts requests failed by RequestTimeout (a subset of
	// Failed).
	TimedOut int64
}

// Add folds o into s, field by field: the aggregate over shards or replicas.
func (s *DispatcherStats) Add(o DispatcherStats) {
	s.Submitted += o.Submitted
	s.Completed += o.Completed
	s.Rejected += o.Rejected
	s.Expired += o.Expired
	s.Failed += o.Failed
	s.Retries += o.Retries
	s.TimedOut += o.TimedOut
}

// IdentityHolds checks the admission conservation identity: every submitted
// request reached exactly one terminal counter. Authoritative once a run has
// drained.
func (s DispatcherStats) IdentityHolds() bool {
	return s.Submitted == s.Completed+s.Rejected+s.Expired+s.Failed
}

// queuedRequest is one request parked behind the concurrency limit.
type queuedRequest struct {
	enqueued des.Time
	tid      int64
	done     func(RequestResult)
}

// RequestResult describes one finished (or refused) request.
type RequestResult struct {
	// Admitted is false for rejected or expired requests; Err then carries
	// the refusal reason (ErrConcurrencyLimit, ErrQueueFull, ErrQueueExpired,
	// ErrDraining) and the remaining fields are zero.
	Admitted bool
	// Cold reports whether the last attempt paid a cold-start fallback.
	Cold bool
	// Latency is the simulated end-to-end latency: queue wait + retry
	// backoff + per-attempt acquisition overhead (warm-invoke or cold-start)
	// + executed guest time. Failed requests report the full time they
	// occupied a concurrency slot, including partial execution of trapped
	// invokes.
	Latency time.Duration
	// QueueWait is the simulated time spent parked in the wait queue.
	QueueWait time.Duration
	// RetryWait is the simulated time spent in backoff between attempts
	// (included in Latency).
	RetryWait time.Duration
	// Attempts is how many attempts ran; 1 means no retries, 0 means never
	// admitted.
	Attempts int
	// Err is the final attempt's error, if any; wrapped by
	// ErrRequestTimeout when the retry budget ran out of time.
	Err error
	// TraceSampled reports whether the tracer kept this request's span
	// track: true for every request when tracing is on without tail
	// sampling, and only for the interesting ones (error, latency outlier)
	// with it. Always false with tracing off.
	TraceSampled bool
}

// inflight tracks one admitted request across its attempts. It is touched
// only from DES callbacks (single goroutine), never concurrently. Records are
// recycled through inflightPool, so the DES events that end an attempt
// (complete) and start a retry (retry) are bound once, when the record is
// first built, and a request allocates neither. The pool is shared by every
// dispatcher, so an idle function holds no record: a free list per
// dispatcher would keep one for every function that has ever served.
type inflight struct {
	d         *Dispatcher
	tid       int64
	done      func(RequestResult)
	queueWait time.Duration
	retryWait time.Duration
	attempts  int
	started   des.Time
	deadline  des.Time // 0 = no timeout
	timedOut  bool
	cold      bool

	// The attempt whose completion event is pending: its leased instance
	// and the invoke's error.
	wi  *WarmInstance
	err error

	complete func() // r.completeAttempt
	retry    func() // r.retryAttempt
}

var inflightPool sync.Pool

// Dispatcher routes requests to a warm pool under a concurrency limit with
// bounded queueing, capped-exponential retries and per-request timeouts. Its
// semantics are single-threaded: Submit and the DES callbacks that complete
// requests must all run on the one goroutine driving the DES engine
// (des.Engine itself is not safe for concurrent use, so this contract is
// inherited, not new). The mutex below guards the mutable dispatch state;
// *observers* on other goroutines — a progress printer, a metrics scraper,
// the gateway's per-request access log — read atomics (stats counters, queue
// length, in-flight count) and never contend with the dispatch path at all.
type Dispatcher struct {
	eng  *des.Engine
	pool *Pool
	cfg  DispatcherConfig
	args [1]exec.Value // cfg.Arg as the invoke's argument list, set once

	// mu guards queue and reqSeq on the dispatch path, and every write of
	// busy. done callbacks and pool calls run outside it. Observers do not
	// take it: every value they read is atomic.
	mu     sync.Mutex
	queue  []queuedRequest
	reqSeq int64

	// stats counters are written with atomic adds (always under mu, so the
	// single-writer DES ordering is preserved) and read lock-free by Stats.
	stats DispatcherStats

	// Lock-free observer surface: the in-flight count is an atomic written
	// under mu, and the queue length is mirrored at every mutation, so
	// QueueLen, InFlight and Quiesced are cheap atomic reads — the gateway
	// calls them per request, and taking mu there would serialize
	// introspection against a burst mid-dispatch.
	qlenA atomic.Int64
	busy  atomic.Int64

	// draining rejects new submissions with ErrDraining while in-flight and
	// queued work flushes; quiesceHook (if set) runs on the DES goroutine
	// each time a settled request leaves the dispatcher quiescent. Both are
	// the gateway's graceful-shutdown hooks.
	draining    atomic.Bool
	quiesceHook func()

	// Telemetry. Counters and gauges are stats and the atomics above, read
	// by the source SetObserver registers; what has no second copy is a
	// handle, nil when observation is disabled (nil handles no-op without
	// allocating; the tracer needs an explicit nil check at span call sites).
	tele           *obs.Telemetry
	obsLatencyNs   *obs.Histogram
	obsQueueWaitNs *obs.Histogram
	obsTracer      *obs.Tracer
}

// NewDispatcher wires a dispatcher to a DES engine and a pool.
func NewDispatcher(eng *des.Engine, pool *Pool, cfg DispatcherConfig) *Dispatcher {
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 1
	}
	return &Dispatcher{eng: eng, pool: pool, cfg: cfg, args: [1]exec.Value{exec.I32(cfg.Arg)}}
}

// SetObserver wires telemetry into the dispatcher: a metric source reporting
// Stats() and the queue-depth/in-flight accessors as the dispatch_*
// counters and gauges (summed over every dispatcher on one telemetry),
// latency/queue-wait histograms, and the per-request lifecycle spans
// (queue-wait → acquire → invoke, plus retry-wait)
// on the simulated timeline, one trace track (TID) per request. It also
// wires the pool so the request timeline and the pool's reset spans land in
// one trace. A second call moves the source; nil disables (the default),
// and the disabled path costs a nil check per event and no allocations.
func (d *Dispatcher) SetObserver(t *obs.Telemetry) {
	d.mu.Lock()
	d.tele.Metrics().RemoveSource(d)
	d.tele = t
	t.Metrics().AddSource(d)
	d.obsLatencyNs = t.Histogram("dispatch_latency_ns")
	d.obsQueueWaitNs = t.Histogram("dispatch_queue_wait_ns")
	d.obsTracer = t.Tracer()
	d.mu.Unlock()
	d.pool.SetObserver(t)
}

// Collect is the dispatcher's metric source (obs.Source).
func (d *Dispatcher) Collect(counter, gauge func(string, int64)) {
	st := d.Stats()
	counter("dispatch_submitted_total", st.Submitted)
	counter("dispatch_completed_total", st.Completed)
	counter("dispatch_rejected_total", st.Rejected)
	counter("dispatch_expired_total", st.Expired)
	counter("dispatch_failed_total", st.Failed)
	counter("dispatch_retries_total", st.Retries)
	counter("dispatch_timeouts_total", st.TimedOut)
	gauge("dispatch_queue_depth", int64(d.QueueLen()))
	gauge("dispatch_in_flight", int64(d.InFlight()))
}

// Submit offers one request at the current simulated time: a SubmitBatch of
// one, so there is a single admission ladder. done runs exactly once —
// immediately for rejections, at the simulated completion time otherwise.
// done may be nil.
func (d *Dispatcher) Submit(done func(RequestResult)) {
	d.SubmitBatch([]BatchItem{{Done: done}})
}

// BatchItem is one request of a coalesced batch submission.
type BatchItem struct {
	// TID is the request's trace track: spans of this request carry it, so a
	// front end that assigns request IDs (the gateway's X-Request-Id) can
	// correlate its access log with the Chrome trace. 0 keeps the
	// dispatcher's internal sequence.
	TID int64
	// Done runs exactly once with the request's final outcome; may be nil.
	Done func(RequestResult)
}

// SubmitBatch offers a batch of requests at the current simulated time, in
// order, with the per-batch work amortized: the dispatcher lock is taken
// once, the queue-deadline sweep runs once, and the submitted count and the
// queue-depth mirror are written once for the whole batch instead of once per
// request. This is the only admission ladder (Submit is a batch of one), and
// its one ordering rule is that admission decisions for the whole batch are
// made before any attempt runs. The router uses this to admit all
// submissions that arrived within one DES event in a single pass.
func (d *Dispatcher) SubmitBatch(items []BatchItem) {
	if len(items) == 0 {
		return
	}
	now := d.eng.Now()
	type refusal struct {
		done   func(RequestResult)
		reason error
	}
	var startsBuf [8]BatchItem
	starts := startsBuf[:0] // admitted: slot claimed, TID assigned
	var refused []refusal
	d.mu.Lock()
	atomic.AddInt64(&d.stats.Submitted, int64(len(items)))
	if d.draining.Load() {
		atomic.AddInt64(&d.stats.Rejected, int64(len(items)))
		d.mu.Unlock()
		for _, it := range items {
			if it.Done != nil {
				it.Done(RequestResult{Err: ErrDraining})
			}
		}
		return
	}
	// One expiry sweep covers the whole batch: every item shares now, and
	// expiry compares strictly against it, so per-item sweeps would be
	// no-ops after the first anyway.
	dead := d.expireHeadsLocked(now)
	for _, it := range items {
		done := it.Done
		if done == nil {
			done = func(RequestResult) {}
		}
		if d.InFlight() >= d.cfg.MaxConcurrency || len(d.queue) > 0 {
			if d.cfg.Policy == PolicyQueue && len(d.queue) < d.cfg.QueueDepth {
				d.queue = append(d.queue, queuedRequest{enqueued: now, tid: it.TID, done: done})
				continue
			}
			reason := ErrConcurrencyLimit
			if d.cfg.Policy == PolicyQueue {
				reason = ErrQueueFull
			}
			atomic.AddInt64(&d.stats.Rejected, 1)
			refused = append(refused, refusal{done: done, reason: reason})
			continue
		}
		// Pre-claim the slot so in-batch admission decisions see it exactly
		// as sequential submissions at the same instant would.
		starts = append(starts, BatchItem{TID: d.claimLocked(it.TID), Done: done})
	}
	d.syncQueueLocked()
	d.mu.Unlock()
	finishAll(dead)
	for _, rf := range refused {
		rf.done(RequestResult{Err: rf.reason})
	}
	for _, a := range starts {
		d.run(a.Done, 0, a.TID)
	}
	if len(refused) > 0 && len(starts) == 0 {
		d.notifyQuiesced()
	}
}

// expireHeadsLocked pops queued requests that outlived QueueDeadline by now
// and returns their callbacks for the caller to run outside the lock.
func (d *Dispatcher) expireHeadsLocked(now des.Time) []func(RequestResult) {
	if d.cfg.QueueDeadline <= 0 {
		return nil
	}
	var dead []func(RequestResult)
	for len(d.queue) > 0 && time.Duration(now-d.queue[0].enqueued) > d.cfg.QueueDeadline {
		dead = append(dead, d.queue[0].done)
		d.queue = d.queue[1:]
		atomic.AddInt64(&d.stats.Expired, 1)
	}
	if len(dead) > 0 {
		d.syncQueueLocked()
	}
	return dead
}

// syncQueueLocked mirrors the queue length into the lock-free observer
// mirror after a queue mutation.
func (d *Dispatcher) syncQueueLocked() { d.qlenA.Store(int64(len(d.queue))) }

// finishAll invokes expired-request callbacks (outside the dispatcher lock).
func finishAll(dead []func(RequestResult)) {
	for _, done := range dead {
		done(RequestResult{Err: ErrQueueExpired})
	}
}

// claimLocked admits one request: it claims a concurrency slot and a trace
// track (tid, or the dispatcher's own sequence for 0) and returns the track.
// The slot is held until the request's final outcome — across retries and
// their backoffs — so MaxConcurrency bounds true in-flight work.
func (d *Dispatcher) claimLocked(tid int64) int64 {
	d.busy.Add(1)
	d.reqSeq++
	if tid == 0 {
		tid = d.reqSeq
	}
	return tid
}

// tracer reads the tracer SetObserver installed (nil when disabled); a
// dispatch step reads it once.
func (d *Dispatcher) tracer() *obs.Tracer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.obsTracer
}

// run launches the first attempt of an already-admitted request (slot
// claimed, TID assigned) on a pooled record.
func (d *Dispatcher) run(done func(RequestResult), queueWait time.Duration, tid int64) {
	tracer := d.tracer()
	r, _ := inflightPool.Get().(*inflight)
	if r == nil {
		r = new(inflight)
		r.complete, r.retry = r.completeAttempt, r.retryAttempt
	}
	r.d = d
	now := d.eng.Now()
	d.obsQueueWaitNs.Record(int64(queueWait))
	if tracer != nil && queueWait > 0 {
		tracer.Span("queue-wait", "serve", tid, int64(now-des.Time(queueWait)), int64(now))
	}
	r.tid, r.done, r.queueWait, r.started = tid, done, queueWait, now
	if d.cfg.RequestTimeout > 0 {
		r.deadline = now + des.Time(d.cfg.RequestTimeout)
	}
	d.attempt(r, tracer)
}

// attempt runs one try of an admitted request: acquire warm or fall back to
// cold, invoke the guest for real, convert the work to simulated latency,
// and schedule completion. Failed attempts may schedule a retry; the final
// outcome always goes through finish, which releases the slot and drains the
// queue.
func (d *Dispatcher) attempt(r *inflight, tracer *obs.Tracer) {
	now := d.eng.Now()
	r.attempts++
	wi, warm := d.pool.Acquire(now)
	var overhead time.Duration
	if warm {
		overhead = d.pool.Engine().Profile.WarmInvokeOverhead
	} else {
		var err error
		wi, err = d.pool.ColdStart()
		if err != nil {
			// Cold-start instantiation failed (for real or injected). The
			// slot stays held through any backoff; win or lose, the request
			// reaches finish, which drains the queue — this path used to
			// return without draining and strand queued requests.
			if d.scheduleRetry(r, err) {
				return
			}
			d.finish(r, err)
			return
		}
		overhead = d.pool.Engine().ColdStartCost()
	}
	wi.tid = r.tid
	r.cold = !warm
	coldAttr := int64(0)
	if !warm {
		coldAttr = 1
	}
	acqEnd := int64(now) + int64(overhead)
	if tracer != nil {
		tracer.Span("acquire", "serve", r.tid, int64(now), acqEnd,
			obs.I64("cold", coldAttr))
	}
	res, err := wi.Invoke(d.cfg.Export, d.args[:]...)
	// The slot is occupied for overhead plus the instructions that actually
	// executed — also when the invoke trapped: res carries the partial
	// execution, so the invoke span, the completion event, and the reported
	// latency all agree on what a failed request consumed.
	errAttr := int64(0)
	if err != nil {
		errAttr = 1
	}
	if tracer != nil {
		tracer.Span("invoke", "serve", r.tid, acqEnd, acqEnd+int64(res.SimulatedExecTime),
			obs.I64("cold", coldAttr),
			obs.I64("instructions", int64(res.Instructions)),
			obs.I64("error", errAttr))
	}
	r.wi, r.err = wi, err
	d.eng.After(overhead+res.SimulatedExecTime, r.complete)
}

// completeAttempt is an attempt's completion event: release the instance,
// then retry or settle the request.
func (r *inflight) completeAttempt() {
	d, wi, err := r.d, r.wi, r.err
	r.wi, r.err = nil, nil
	d.pool.Release(wi, d.eng.Now())
	if err != nil && d.scheduleRetry(r, err) {
		return
	}
	d.finish(r, err)
}

// retryAttempt is a retry's event: the next attempt, once the backoff ends.
func (r *inflight) retryAttempt() { r.d.attempt(r, r.d.tracer()) }

// scheduleRetry arms the next attempt after a capped-exponential backoff on
// the DES clock. It reports false — leaving the caller to finish the request
// — when retries are disabled, exhausted, or the backoff would end past the
// request's deadline (which marks the request timed out).
func (d *Dispatcher) scheduleRetry(r *inflight, cause error) bool {
	if d.cfg.MaxRetries <= 0 || r.attempts > d.cfg.MaxRetries {
		return false
	}
	backoff := retryBackoff
	for i := 1; i < r.attempts; i++ {
		backoff *= 2
		if d.cfg.RetryBackoffCap > 0 && backoff >= d.cfg.RetryBackoffCap {
			backoff = d.cfg.RetryBackoffCap
			break
		}
	}
	now := d.eng.Now()
	if r.deadline > 0 && now+des.Time(backoff) > r.deadline {
		r.timedOut = true
		return false
	}
	d.mu.Lock()
	atomic.AddInt64(&d.stats.Retries, 1)
	tracer := d.obsTracer
	d.mu.Unlock()
	r.retryWait += backoff
	if tracer != nil {
		tracer.Span("retry-wait", "serve", r.tid, int64(now), int64(now)+int64(backoff),
			obs.I64("attempt", int64(r.attempts)))
	}
	d.eng.After(backoff, r.retry)
	return true
}

// finish settles a request's final outcome: it releases the concurrency
// slot, lands the terminal counter, records latency (success or failure),
// returns the record to the pool, invokes the callback, and drains freed
// capacity into the queue. The record is back in the pool before the
// callback runs, so a callback that submits again may reuse it: nothing
// reads r after that.
func (d *Dispatcher) finish(r *inflight, err error) {
	now := d.eng.Now()
	latency := r.queueWait + time.Duration(now-r.started)
	if r.timedOut {
		err = fmt.Errorf("%w after %d attempts: %w", ErrRequestTimeout, r.attempts, err)
	}
	done, tid := r.done, r.tid
	res := RequestResult{
		Admitted:  true,
		Cold:      r.cold,
		Latency:   latency,
		QueueWait: r.queueWait,
		RetryWait: r.retryWait,
		Attempts:  r.attempts,
		Err:       err,
	}
	d.mu.Lock()
	d.busy.Add(-1)
	if err != nil {
		atomic.AddInt64(&d.stats.Failed, 1)
		if r.timedOut {
			atomic.AddInt64(&d.stats.TimedOut, 1)
		}
	} else {
		atomic.AddInt64(&d.stats.Completed, 1)
	}
	tracer := d.obsTracer
	d.mu.Unlock()
	*r = inflight{complete: r.complete, retry: r.retry}
	inflightPool.Put(r)
	d.obsLatencyNs.Record(int64(latency))
	if tracer != nil {
		res.TraceSampled = tracer.FinishTrack(tid, obs.TrackOutcome{
			Err:       err != nil,
			LatencyNs: int64(latency),
		})
	}
	done(res)
	d.drainQueue()
	d.notifyQuiesced()
}

// drainQueue dispatches queued requests into freed capacity, dropping any
// that outlived the deadline while parked.
func (d *Dispatcher) drainQueue() {
	now := d.eng.Now()
	for {
		d.mu.Lock()
		// Dead heads never occupy capacity.
		if dead := d.expireHeadsLocked(now); len(dead) > 0 {
			d.mu.Unlock()
			finishAll(dead)
			continue
		}
		if d.InFlight() >= d.cfg.MaxConcurrency || len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		q := d.queue[0]
		d.queue = d.queue[1:]
		d.syncQueueLocked()
		tid := d.claimLocked(q.tid)
		d.mu.Unlock()
		d.run(q.done, time.Duration(now-q.enqueued), tid)
	}
}

// SetDraining flips the dispatcher's draining state. While draining, new
// submissions are rejected immediately with ErrDraining; requests already
// in flight or queued run to their normal outcome, so the admission identity
// still balances once the flush completes. Safe to call from any goroutine
// (the flag is observed at the next admission on the DES goroutine); the
// gateway sets it on SIGTERM before waiting for quiescence.
func (d *Dispatcher) SetDraining(v bool) { d.draining.Store(v) }

// Draining reports whether SetDraining(true) is in effect. A lock-free
// atomic read, safe from any goroutine.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// Quiesced reports whether the dispatcher holds no work: nothing in flight
// and nothing queued. A lock-free atomic read, safe from any goroutine;
// under the DES contract it is authoritative only between events.
func (d *Dispatcher) Quiesced() bool {
	return d.busy.Load() == 0 && d.qlenA.Load() == 0
}

// SetQuiesceHook registers fn to run — on the goroutine driving the DES —
// each time a settled request leaves the dispatcher with no in-flight or
// queued work. The gateway's drain path uses it to snapshot final metrics
// the moment the flush completes instead of polling.
func (d *Dispatcher) SetQuiesceHook(fn func()) {
	d.mu.Lock()
	d.quiesceHook = fn
	d.mu.Unlock()
}

// notifyQuiesced runs the quiesce hook if the dispatcher just went idle.
func (d *Dispatcher) notifyQuiesced() {
	if !d.Quiesced() {
		return
	}
	d.mu.Lock()
	fn := d.quiesceHook
	d.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Pool returns the dispatcher's pool.
func (d *Dispatcher) Pool() *Pool { return d.pool }

// Telemetry returns the telemetry wired by SetObserver, nil when disabled.
// Collaborators (the load generator) resolve their own handles from it; all
// obs accessors are nil-safe, so callers need no nil check of their own.
func (d *Dispatcher) Telemetry() *obs.Telemetry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tele
}

// QueueLen returns the number of requests currently parked. A lock-free
// atomic read: safe — and cheap enough for per-request use — from any
// goroutine while a simulation runs.
func (d *Dispatcher) QueueLen() int { return int(d.qlenA.Load()) }

// InFlight returns the number of requests currently executing (or backing
// off between retries). A lock-free atomic read, safe from any goroutine
// while a simulation runs.
func (d *Dispatcher) InFlight() int { return int(d.busy.Load()) }

// Stats returns a snapshot of the outcome counters without taking the
// dispatcher lock: each counter is an independent atomic read, so a scrape
// never contends with the dispatch path. Counters written by the same event
// are not read as one transaction, but the conservation identity still
// holds exactly whenever the dispatcher is between events (and always after
// a drain), which is when callers assert it.
func (d *Dispatcher) Stats() DispatcherStats {
	return DispatcherStats{
		Submitted: atomic.LoadInt64(&d.stats.Submitted),
		Completed: atomic.LoadInt64(&d.stats.Completed),
		Rejected:  atomic.LoadInt64(&d.stats.Rejected),
		Expired:   atomic.LoadInt64(&d.stats.Expired),
		Failed:    atomic.LoadInt64(&d.stats.Failed),
		Retries:   atomic.LoadInt64(&d.stats.Retries),
		TimedOut:  atomic.LoadInt64(&d.stats.TimedOut),
	}
}
